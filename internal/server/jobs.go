package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"multisite/internal/diskcache"
	"multisite/internal/jobs"
	"multisite/internal/resultcache"
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
// A job spec is parsed at submit time by the synchronous endpoints' own
// parseOp (op.go), and again by every attempt: what the journal replays
// was accepted by those rules. Jobs ignore timeout_ms — durable work runs
// under the retry policy, not a request deadline — and reject anytime,
// whose improving prefixes must never be mistaken for a durable result.
// A degraded result is likewise never persisted: an attempt that could
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
	s.rows = resultcache.NewOf[string, snapshotView](resultcache.Options{Capacity: opts.CacheCapacity})
	mgr, err := jobs.Open(jobs.Options{
		Dir:         opts.DataDir + "/jobs",
		IDPrefix:    s.fleet.jobIDPrefix(),
		CAS:         disk,
		Runner:      s.runJob,
		Workers:     opts.JobWorkers,
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
	// A job routes where its inner spec's synchronous request would: the
	// shard owning the spec's key accepts it, journals it, and serves its
	// result. The key rides the 202 so clients can correlate.
	o := s.admit(w, r, "/v1/jobs")
	if o == nil {
		return
	}
	snap, err := s.jobMgr.Enqueue(jobs.Spec{Type: o.typ, Request: o.body})
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
	w.Header().Set(HeaderCacheKey, o.key)
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

// runJob executes one job attempt: the jobs.Runner the manager drives.
// It re-parses the spec (the registry may have changed since the submit)
// and runs the synchronous endpoints' operations under the durable
// failure policy, through the same cache tiers, which is what makes a
// re-run after a crash fast-forward to byte-identical results.
func (s *Server) runJob(ctx context.Context, spec jobs.Spec, sink jobs.Sink) error {
	o, _, err := parseOp(spec.Type, spec.Request)
	if err != nil {
		return err
	}
	switch o.typ {
	case jobs.TypeSweep:
		sink.SetTotal(len(o.points))
		return s.sweep(ctx, o, true, func(row []byte, _ bool) error { return sink.Emit(row) })
	case jobs.TypeCompare:
		sink.SetTotal(1)
		resp, err := s.compare(ctx, o, true)
		if err != nil {
			return err
		}
		data, err := json.Marshal(resp)
		if err != nil {
			return err
		}
		return sink.Emit(data)
	}
	sink.SetTotal(1)
	res, _, err := s.computeSnapshot(ctx, s.memoFor(o), o.chip, o.solvers[0], o.key, o.cfg, false)
	if err != nil {
		return err
	}
	if res.view.Degraded {
		return errDegradedResult
	}
	return sink.Emit(res.data)
}
