package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"multisite/internal/core"
	"multisite/internal/diskcache"
	"multisite/internal/engine"
	"multisite/internal/jobs"
	"multisite/internal/solve"
)

// This file wires the durable tier into the serving layer: the
// content-addressed disk cache (internal/diskcache) layered behind the
// in-memory resultcache, and the journaled job subsystem
// (internal/jobs) behind the /v1/jobs endpoints.
//
//	POST /v1/jobs             — enqueue an optimize/sweep/compare spec;
//	                            202 once the enqueue record is fsynced.
//	GET  /v1/jobs             — list retained jobs.
//	GET  /v1/jobs/{id}        — one job's state and progress.
//	GET  /v1/jobs/{id}/result — stream the result as NDJSON, resumable
//	                            via ?offset=N (rows already consumed).
//	GET  /livez               — process liveness (always ok once serving).
//	GET  /readyz              — 503 until the job journal replay finishes.
//
// Job specs are validated at submit time under exactly the untrusted-
// path rules of the synchronous endpoints (strict JSON, SOC and solver
// resolution, grid bounds); what the journal replays was accepted by
// those rules. Jobs ignore timeout_ms — durable work runs under the
// retry policy, not a request deadline — and reject anytime, whose
// improving prefixes must never be mistaken for a durable result. A
// degraded result is likewise never persisted: an attempt that could
// only produce a degraded design fails as transient and retries after
// backoff, giving open breakers time to close.

// errDegradedResult classifies a degraded design as a transient attempt
// failure (it wraps solve.ErrTransient so jobRetryable retries it).
var errDegradedResult = fmt.Errorf("result degraded under pressure: %w", solve.ErrTransient)

// jobRetryable classifies job attempt errors: open breakers, injected
// faults, and deadlines are transient; everything else is the spec's
// own fault.
func jobRetryable(err error) bool {
	return errors.Is(err, solve.ErrTransient) || errors.Is(err, context.DeadlineExceeded)
}

// NewWithData builds a server and, when opts.DataDir is set, opens the
// durable tier under it: the disk cache at <dir>/cache (the L2 behind
// the in-memory resultcache, and the CAS job results live in) and the
// job journal at <dir>/jobs. An empty DataDir yields a purely in-memory
// server, byte-for-byte equivalent to New.
func NewWithData(opts Options) (*Server, error) {
	// Validate the fleet configuration up front: New panics on it (its
	// signature predates fleet mode), and a flag typo deserves an error.
	if _, err := newFleet(opts); err != nil {
		return nil, err
	}
	s := New(opts)
	if opts.DataDir == "" {
		return s, nil
	}
	disk, err := diskcache.Open(diskcache.Options{
		Dir:    opts.DataDir + "/cache",
		Inject: opts.DiskInject,
		Logf:   opts.Logf,
	})
	if err != nil {
		return nil, err
	}
	s.disk = disk
	mgr, err := jobs.Open(jobs.Options{
		Dir:         opts.DataDir + "/jobs",
		IDPrefix:    s.fleet.jobIDPrefix(),
		CAS:         disk,
		Runner:      s.runJob,
		Workers:     opts.JobWorkers,
		MaxAttempts: opts.JobMaxAttempts,
		Backoff:     opts.JobBackoff,
		Retryable:   jobRetryable,
		Inject:      opts.DiskInject,
		Logf:        opts.Logf,
		StallReplay: opts.JobStallReplay,
	})
	if err != nil {
		return nil, err
	}
	s.jobMgr = mgr
	return s, nil
}

// Close drains the durable job layer: running attempts stop, in-flight
// progress is checkpointed, and the journal is fsynced and closed. The
// ctx bounds the drain. A server without a data dir closes trivially.
func (s *Server) Close(ctx context.Context) error {
	if s.jobMgr == nil {
		return nil
	}
	return s.jobMgr.Close(ctx)
}

// CloseAbrupt approximates kill -9 for in-process crash drills: no
// checkpoint, no final fsync (see jobs.Manager.CloseAbrupt).
func (s *Server) CloseAbrupt() {
	if s.jobMgr != nil {
		s.jobMgr.CloseAbrupt()
	}
}

// jobsEnabled writes the 503 explaining the missing durable tier when
// the server runs without a data dir, reporting false.
func (s *Server) jobsEnabled(w http.ResponseWriter) bool {
	if s.jobMgr == nil {
		writeError(w, http.StatusServiceUnavailable,
			errors.New("durable job layer disabled; start the server with -data-dir"))
		return false
	}
	return true
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	var req JobSubmitRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	typ := jobs.Type(req.Type)
	if !jobs.ValidType(typ) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown job type %q; use optimize, sweep, or compare", req.Type))
		return
	}
	if status, err := s.validateJobSpec(typ, req.Request); err != nil {
		writeError(w, status, err)
		return
	}
	// A job routes where its inner spec's synchronous request would: the
	// shard owning the spec's cache key accepts it, journals it, and
	// serves its result. The key rides the 202 so clients can correlate.
	key, _, keyErr := jobRouteKey(typ, req.Request)
	if keyErr == nil && s.redirectRemote(w, r, key) {
		return
	}
	snap, err := s.jobMgr.Enqueue(jobs.Spec{Type: typ, Request: req.Request})
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, jobs.ErrClosed):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	if keyErr == nil {
		w.Header().Set(HeaderCacheKey, key)
	}
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(snap)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}{s.jobMgr.List()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	snap, ok := s.jobMgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, jobs.ErrNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap)
}

// handleJobResult streams a job's result rows as NDJSON from ?offset=N
// (rows already consumed), following a live job until it settles. The
// final row count rides in the X-Job-Rows trailer-free header only when
// the job is already done; resumption is offset-driven either way.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	id := r.PathValue("id")
	snap, ok := s.jobMgr.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, jobs.ErrNotFound)
		return
	}
	if snap.State == jobs.StateFailed {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s failed permanently: %s", id, snap.Error))
		return
	}
	offset := 0
	if v := r.URL.Query().Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("offset: want a non-negative integer, got %q", v))
			return
		}
		offset = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Job-Id", id)
	flusher, _ := w.(http.Flusher)
	wrote := false
	final, err := s.jobMgr.StreamResult(r.Context(), id, offset, func(row []byte) error {
		wrote = true
		if _, err := w.Write(row); err != nil {
			return err
		}
		if _, err := w.Write([]byte("\n")); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, jobs.ErrResultLost) && !wrote {
			// The stored blob failed verification; it was quarantined and
			// the job re-enqueued — retry after it recomputes. Corrupt
			// bytes were never written to this response.
			writeError(w, http.StatusServiceUnavailable, err)
		}
		// Mid-stream failures (client gone, shutdown) truncate the NDJSON;
		// delivered rows stand, and the offset cursor resumes the rest.
		return
	}
	if final.State == jobs.StateFailed && !wrote {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s failed permanently: %s", id, final.Error))
	}
}

// handleLivez is the pure liveness probe: the process is serving.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, "{\"status\":\"ok\"}\n")
}

// handleReadyz is the readiness probe: 503 while the job journal replay
// is still reconstructing state (routing traffic to a replaying server
// would answer job queries from an incomplete view). A server without a
// durable tier is ready as soon as it serves.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if !s.jobsReady() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "{\"status\":\"starting\",\"reason\":\"job journal replay in progress\"}\n")
		return
	}
	io.WriteString(w, "{\"status\":\"ready\"}\n")
}

// jobsReady reports whether the job recovery pass (if any) finished.
func (s *Server) jobsReady() bool {
	if s.jobMgr == nil {
		return true
	}
	select {
	case <-s.jobMgr.Ready():
		return true
	default:
		return false
	}
}

// strictUnmarshal decodes JSON with unknown fields rejected — the same
// strictness decodeJSON applies to synchronous bodies, for spec bytes
// that arrive via the job envelope or the journal.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// validateJobSpec runs a job spec through the synchronous endpoints'
// validation rules without computing anything, returning the HTTP
// status and error a bad spec earns at submit time.
func (s *Server) validateJobSpec(typ jobs.Type, raw []byte) (int, error) {
	if len(raw) == 0 {
		return http.StatusBadRequest, errors.New("request: a job spec needs a request body")
	}
	if len(raw) > maxBodyBytes {
		return http.StatusBadRequest, fmt.Errorf("request: %d bytes exceeds the %d-byte bound", len(raw), maxBodyBytes)
	}
	switch typ {
	case jobs.TypeOptimize:
		var req ScenarioRequest
		if err := strictUnmarshal(raw, &req); err != nil {
			return http.StatusBadRequest, fmt.Errorf("request: %v", err)
		}
		if status, err := s.validateScenario(&req); err != nil {
			return status, err
		}
	case jobs.TypeSweep:
		var req SweepRequest
		if err := strictUnmarshal(raw, &req); err != nil {
			return http.StatusBadRequest, fmt.Errorf("request: %v", err)
		}
		env, status, err := s.validateScenarioEnv(&req.ScenarioRequest)
		if err != nil {
			return status, err
		}
		grid := req.Grid(env.soc)
		if n := grid.Size(); n > maxSweepScenarios {
			return http.StatusBadRequest,
				fmt.Errorf("sweep expands to %d scenarios; the limit is %d", n, maxSweepScenarios)
		}
		if len(grid.Jobs()) == 0 {
			return http.StatusBadRequest, errors.New("sweep expands to no scenarios")
		}
	case jobs.TypeCompare:
		var req CompareRequest
		if err := strictUnmarshal(raw, &req); err != nil {
			return http.StatusBadRequest, fmt.Errorf("request: %v", err)
		}
		if req.Anytime {
			return http.StatusBadRequest, errAnytimeJob
		}
		if _, status, err := resolveCompareSolvers(&req); err != nil {
			return status, err
		}
		if _, status, err := s.resolveSOC(&req.ScenarioRequest); err != nil {
			return status, err
		}
		if status, err := validateConfig(req.Config()); err != nil {
			return status, err
		}
	default:
		return http.StatusBadRequest, fmt.Errorf("unknown job type %q", typ)
	}
	return 0, nil
}

// errAnytimeJob rejects anytime streaming on durable jobs.
var errAnytimeJob = errors.New("anytime streaming is a synchronous feature; a job returns one durable result")

// validateScenario checks one scenario request fully (SOC, solver,
// configuration), discarding the resolved environment.
func (s *Server) validateScenario(req *ScenarioRequest) (int, error) {
	if _, status, err := s.validateScenarioEnv(req); err != nil {
		return status, err
	}
	if _, status, err := resolveSolver(req.Solver); err != nil {
		return status, err
	}
	return validateConfig(req.Config())
}

// validateScenarioEnv resolves the scenario's SOC and rejects the
// job-incompatible anytime flag.
func (s *Server) validateScenarioEnv(req *ScenarioRequest) (*scenarioEnv, int, error) {
	if req.Anytime {
		return nil, http.StatusBadRequest, errAnytimeJob
	}
	return s.resolveSOC(req)
}

// validateConfig applies the compute path's configuration checks at
// submit time, so a bad ATE or probe spec is a 422 now, not a
// permanently failed job later.
func validateConfig(cfg core.Config) (int, error) {
	cfg = cfg.Normalized()
	if err := cfg.ATE.Validate(); err != nil {
		return http.StatusUnprocessableEntity, err
	}
	if err := cfg.Probe.Validate(); err != nil {
		return http.StatusUnprocessableEntity, err
	}
	return 0, nil
}

// runJob executes one job attempt: the jobs.Runner the manager drives.
// Rows flow through the same two (now three, with the disk tier) cache
// layers as the synchronous endpoints, which is what makes a re-run
// after a crash fast-forward to byte-identical results.
func (s *Server) runJob(ctx context.Context, spec jobs.Spec, sink jobs.Sink) error {
	switch spec.Type {
	case jobs.TypeOptimize:
		return s.runOptimizeJob(ctx, spec.Request, sink)
	case jobs.TypeSweep:
		return s.runSweepJob(ctx, spec.Request, sink)
	case jobs.TypeCompare:
		return s.runCompareJob(ctx, spec.Request, sink)
	}
	return fmt.Errorf("unknown job type %q", spec.Type)
}

func (s *Server) runOptimizeJob(ctx context.Context, raw []byte, sink jobs.Sink) error {
	var req ScenarioRequest
	if err := strictUnmarshal(raw, &req); err != nil {
		return fmt.Errorf("request: %v", err)
	}
	env, _, err := s.resolveSOC(&req)
	if err != nil {
		return err
	}
	solver, _, err := resolveSolver(req.Solver)
	if err != nil {
		return err
	}
	sink.SetTotal(1)
	cfg := req.Config()
	res, _, err := s.computeSnapshot(ctx, env, solver, cacheKey(env.hash, solver, cfg), cfg)
	if err != nil {
		return err
	}
	if res.view.Degraded {
		return errDegradedResult
	}
	return sink.Emit(res.data)
}

// runSweepJob computes a sweep's rows on the engine pool and emits them
// in deterministic grid order (the same gap-closing delivery the
// synchronous endpoint streams with). Any transient row failure aborts
// the attempt — a durable sweep result never embeds a row that a retry
// would have computed — while input-shaped row errors are embedded
// exactly as the synchronous endpoint embeds them.
func (s *Server) runSweepJob(ctx context.Context, raw []byte, sink jobs.Sink) error {
	var req SweepRequest
	if err := strictUnmarshal(raw, &req); err != nil {
		return fmt.Errorf("request: %v", err)
	}
	env, _, err := s.resolveSOC(&req.ScenarioRequest)
	if err != nil {
		return err
	}
	solver, _, err := resolveSolver(req.Solver)
	if err != nil {
		return err
	}
	grid := req.Grid(env.soc)
	if n := grid.Size(); n > maxSweepScenarios {
		return fmt.Errorf("sweep expands to %d scenarios; the limit is %d", n, maxSweepScenarios)
	}
	points := grid.Jobs()
	if len(points) == 0 {
		return errors.New("sweep expands to no scenarios")
	}
	sink.SetTotal(len(points))

	rows := make([][]byte, len(points))
	completed := make([]bool, len(points))
	var (
		mu           sync.Mutex
		next         int
		emitErr      error
		transientErr error
	)
	deliver := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		completed[i] = true
		for next < len(points) && completed[next] {
			if emitErr == nil && rows[next] != nil {
				emitErr = sink.Emit(rows[next])
			}
			next++
		}
	}
	_, mapErr := engine.Map(ctx, len(points), s.opts.Workers, func(ctx context.Context, i int) (struct{}, error) {
		defer deliver(i)
		data, err := s.jobRowBytes(ctx, env, solver, i, points[i])
		if err != nil {
			mu.Lock()
			if transientErr == nil {
				transientErr = err
			}
			mu.Unlock()
			return struct{}{}, err
		}
		rows[i] = data
		return struct{}{}, nil
	})
	// Map's own error may be a secondary cancellation; the first
	// transient row failure is the attempt's true cause.
	mu.Lock()
	firstErr := transientErr
	if firstErr == nil && emitErr != nil {
		firstErr = emitErr
	}
	mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	return mapErr
}

// jobRowBytes computes one sweep row for a job: transient failures and
// degraded designs return an error (abort the attempt, retry later);
// input-shaped errors become error rows as in the synchronous sweep.
func (s *Server) jobRowBytes(ctx context.Context, env *scenarioEnv, solver string, i int, point engine.Job) ([]byte, error) {
	res, _, err := s.computeSnapshot(ctx, env, solver, cacheKey(env.hash, solver, point.Config), point.Config)
	if err != nil {
		if jobRetryable(err) || ctx.Err() != nil {
			return nil, err
		}
		return json.Marshal(SweepRow{Index: i, Name: point.Name, Error: err.Error()})
	}
	if res.view.Degraded {
		return nil, fmt.Errorf("row %d (%s): %w", i, point.Name, errDegradedResult)
	}
	return json.Marshal(rowFromSnapshot(i, point.Name, &res.view))
}

// runCompareJob runs the comparison and emits the whole delta table as
// one row. As with sweeps, a transient backend failure or a degraded
// design aborts the attempt rather than persisting a half-true table.
func (s *Server) runCompareJob(ctx context.Context, raw []byte, sink jobs.Sink) error {
	var req CompareRequest
	if err := strictUnmarshal(raw, &req); err != nil {
		return fmt.Errorf("request: %v", err)
	}
	solvers, _, err := resolveCompareSolvers(&req)
	if err != nil {
		return err
	}
	env, _, err := s.resolveSOC(&req.ScenarioRequest)
	if err != nil {
		return err
	}
	sink.SetTotal(1)
	cfg := req.Config()
	rows := make([]CompareRow, len(solvers))
	var (
		mu           sync.Mutex
		transientErr error
	)
	_, mapErr := engine.Map(ctx, len(solvers), s.opts.Workers, func(ctx context.Context, i int) (struct{}, error) {
		row, err := s.jobCompareRow(ctx, env, solvers[i], cfg)
		if err != nil {
			mu.Lock()
			if transientErr == nil {
				transientErr = err
			}
			mu.Unlock()
			return struct{}{}, err
		}
		rows[i] = row
		return struct{}{}, nil
	})
	mu.Lock()
	firstErr := transientErr
	mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	if mapErr != nil {
		return mapErr
	}
	resp := CompareResponse{SOC: env.soc.Name, SOCHash: env.hash, Rows: rows}
	resp.Reference = referenceRow(rows)
	applyDeltas(&resp)
	data, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	return sink.Emit(data)
}

// jobCompareRow computes one backend's comparison row for a job, with
// the job-layer failure classification (transient aborts, input errors
// embed, degraded never persists).
func (s *Server) jobCompareRow(ctx context.Context, env *scenarioEnv, solver string, cfg core.Config) (CompareRow, error) {
	res, _, err := s.computeSnapshot(ctx, env, solver, cacheKey(env.hash, solver, cfg), cfg)
	if err != nil {
		if jobRetryable(err) || ctx.Err() != nil {
			return CompareRow{}, err
		}
		return CompareRow{Solver: solver, Error: err.Error()}, nil
	}
	if res.view.Degraded {
		return CompareRow{}, fmt.Errorf("solver %s: %w", solver, errDegradedResult)
	}
	row := CompareRow{Solver: solver}
	fillCompareRow(&row, &res.view)
	return row, nil
}
