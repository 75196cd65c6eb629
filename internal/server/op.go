package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"multisite/internal/benchdata"
	"multisite/internal/cachekey"
	"multisite/internal/core"
	"multisite/internal/engine"
	"multisite/internal/jobs"
	"multisite/internal/soc"
	"multisite/internal/solve"
)

// This file is the operation layer: each of the three compute operations
// (optimize, sweep, compare) is decoded, validated and routed once, by
// parseOp, whether it arrives as a synchronous request, a job submission,
// a journal replay or a body the fleet gateway routes. Sweep and compare
// are written once each over engine.Ordered, with the failure policy a
// parameter: the synchronous endpoints embed failures as error rows, the
// job runner aborts the attempt on anything a retry could improve.

// op is one decoded and validated compute request. Nothing downstream of
// parseOp re-checks it.
type op struct {
	typ  jobs.Type
	body []byte // the bytes parsed: what a job journals and replays

	chip   *soc.SOC
	hash   string // the chip's canonical hash
	inline bool   // chip came from soc_text, not a built-in benchmark

	// solvers holds canonical backend names: the one an optimize or a
	// sweep runs, or a comparison's backends in response-row order.
	solvers []string
	cfg     core.Config  // the (base) scenario's configuration
	points  []engine.Job // a sweep's grid, in stream order
	key     string       // the fleet routing key; an optimize's cache key

	timeoutMS int
	anytime   bool
}

// builtinHashes memoizes name → canonical hash for the built-in
// benchmark SOCs, for parseOp and GET /v1/socs.
var builtinHashes = func() map[string]string {
	m := make(map[string]string)
	for _, name := range benchdata.Names() {
		m[name] = benchdata.Shared(name).Hash()
	}
	return m
}()

// errAnytimeJob rejects anytime streaming on durable jobs.
var errAnytimeJob = errors.New("anytime streaming is a synchronous feature; a job returns one durable result")

// parseOp decodes an optimize, sweep or compare body strictly and checks
// it under the synchronous endpoints' rules, in their order: the compare
// solver list, the SOC, the solver, the sweep's grid bounds, then the
// tester and probe of an optimize or compare (a sweep reports a bad grid
// point as an error row instead). A rejected body comes back with the
// HTTP status it earns.
func parseOp(typ jobs.Type, body []byte) (*op, int, error) {
	var (
		base  *ScenarioRequest
		sweep *SweepRequest
		cmp   *CompareRequest
		req   any
	)
	switch typ {
	case jobs.TypeOptimize:
		base = new(ScenarioRequest)
		req = base
	case jobs.TypeSweep:
		sweep = new(SweepRequest)
		base, req = &sweep.ScenarioRequest, sweep
	case jobs.TypeCompare:
		cmp = new(CompareRequest)
		base, req = &cmp.ScenarioRequest, cmp
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("unknown job type %q; use optimize, sweep, or compare", typ)
	}
	if err := strictUnmarshal(body, req); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("request body: %v", err)
	}
	o := &op{typ: typ, body: body, cfg: base.Config(), timeoutMS: base.TimeoutMS, anytime: base.Anytime}
	if cmp != nil {
		solvers, status, err := resolveCompareSolvers(cmp)
		if err != nil {
			return nil, status, err
		}
		o.solvers = solvers
	}

	switch {
	case base.SOC != "" && base.SOCText != "":
		return nil, http.StatusBadRequest, fmt.Errorf("use either soc or soc_text, not both")
	case base.SOC != "":
		hash, ok := builtinHashes[base.SOC]
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("unknown soc %q; see GET /v1/socs", base.SOC)
		}
		o.chip, o.hash = benchdata.Shared(base.SOC), hash
	case base.SOCText != "":
		chip, err := soc.ParseString(base.SOCText)
		if err != nil {
			return nil, http.StatusUnprocessableEntity, fmt.Errorf("soc_text: %v", err)
		}
		o.chip, o.hash, o.inline = chip, chip.Hash(), true
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("specify soc (a benchmark name) or soc_text (inline ITC'02 text)")
	}

	if cmp != nil {
		o.key = cachekey.RouteCompare(o.hash, o.cfg)
	} else {
		solver, status, err := resolveSolver(base.Solver)
		if err != nil {
			return nil, status, err
		}
		o.solvers = []string{solver}
		o.key = cachekey.Scenario(o.hash, solver, o.cfg)
	}

	if sweep != nil {
		grid := sweep.Grid(o.chip)
		if n := grid.Size(); n > maxSweepScenarios {
			return nil, http.StatusBadRequest,
				fmt.Errorf("sweep expands to %d scenarios; the limit is %d", n, maxSweepScenarios)
		}
		if o.points = grid.Jobs(); len(o.points) == 0 {
			return nil, http.StatusBadRequest, errors.New("sweep expands to no scenarios")
		}
		return o, 0, nil
	}
	cfg := o.cfg.Normalized()
	if err := cfg.ATE.Validate(); err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	if err := cfg.Probe.Validate(); err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	return o, 0, nil
}

// parseRequest parses the body of a POST to one of the keyed endpoints:
// the one parse the handlers and FleetRouteKey share. A job submission
// is its inner spec's op, minus anytime.
func parseRequest(endpoint string, body []byte) (*op, int, error) {
	switch endpoint {
	case "/v1/optimize":
		return parseOp(jobs.TypeOptimize, body)
	case "/v1/sweep":
		return parseOp(jobs.TypeSweep, body)
	case "/v1/compare":
		return parseOp(jobs.TypeCompare, body)
	case "/v1/jobs":
		var req JobSubmitRequest
		if err := strictUnmarshal(body, &req); err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("request body: %v", err)
		}
		if jobs.ValidType(jobs.Type(req.Type)) && len(req.Request) == 0 {
			return nil, http.StatusBadRequest, errors.New("request: a job spec needs a request body")
		}
		o, status, err := parseOp(jobs.Type(req.Type), req.Request)
		if err == nil && o.anytime {
			return nil, http.StatusBadRequest, errAnytimeJob
		}
		return o, status, err
	}
	return nil, http.StatusNotFound, fmt.Errorf("no fleet route for %q", endpoint)
}

// strictUnmarshal decodes JSON with unknown fields rejected.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// resolveSolver validates a request's solver name against the registry
// and returns its canonical name (the spelling cache keys and memo keys
// use), or an HTTP-status-carrying error listing the valid names.
func resolveSolver(name string) (string, int, error) {
	sv, err := solve.Get(name)
	if err != nil {
		return "", http.StatusBadRequest, err
	}
	return sv.Name(), 0, nil
}

// resolveCompareSolvers validates a comparison's backend list and
// returns the canonical names in response-row order.
func resolveCompareSolvers(req *CompareRequest) ([]string, int, error) {
	if req.Solver != "" {
		return nil, http.StatusBadRequest,
			errors.New("use solvers (a list) to choose comparison backends, not solver")
	}
	names := req.Solvers
	if len(names) == 0 {
		names = solve.Names()
	}
	if len(names) > maxCompareSolvers {
		return nil, http.StatusBadRequest,
			fmt.Errorf("comparing %d solvers; the limit is %d", len(names), maxCompareSolvers)
	}
	if len(names) < 2 {
		return nil, http.StatusBadRequest,
			errors.New("a comparison needs at least two solvers")
	}
	solvers := make([]string, len(names))
	seen := make(map[string]bool, len(names))
	for i, name := range names {
		canonical, status, err := resolveSolver(name)
		if err != nil {
			return nil, status, err
		}
		if seen[canonical] {
			return nil, http.StatusBadRequest, fmt.Errorf("duplicate solver %q", canonical)
		}
		seen[canonical] = true
		solvers[i] = canonical
	}
	return solvers, 0, nil
}

// admit reads the body posted to endpoint, parses it (parseRequest) and
// applies fleet placement. It returns the op, or nil once it has
// answered: a rejected body, or the proxyless 307 to the shard owning the
// op's key. Validation comes first, so a peer rejects a bad body exactly
// as the gateway does.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, endpoint string) *op {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("request body: %v", err))
		return nil
	}
	o, status, err := parseRequest(endpoint, body)
	if err != nil {
		writeError(w, status, err)
		return nil
	}
	if s.redirectRemote(w, r, o.key) {
		return nil
	}
	return o
}

// memoFor picks the design memo an op's scenarios go through: the shared
// per-process memo for built-in benchmarks, an empty one per request for
// an inline SOC (pointer-keyed designs must not accumulate across
// uploads), which still counts in the shared memo's Stats.
func (s *Server) memoFor(o *op) *engine.Memo {
	if !o.inline {
		return s.memo
	}
	return s.memo.Scope()
}

// outcome computes one scenario of o under solver and cfg as a row (see
// computeSnapshot; a server without a disk tier derives no cache key for
// it) and applies the failure policy. It returns the snapshot's view, or
// rowErr: a failure the row reports in the view's place. Under the
// durable policy a transient or cancelled compute, or a degraded design,
// is fatal instead — it aborts the job attempt, since a durable result
// must never embed a row a retry could improve.
func (s *Server) outcome(ctx context.Context, memo *engine.Memo, o *op, solver string, cfg core.Config, durable bool) (view snapshotView, rowErr, fatal error) {
	var key string
	if s.disk != nil {
		key = cachekey.Scenario(o.hash, solver, cfg)
	}
	res, _, err := s.computeSnapshot(ctx, memo, o.chip, solver, key, cfg, true)
	switch {
	case !durable:
	case err != nil && (jobRetryable(err) || ctx.Err() != nil):
		return view, nil, err
	case err == nil && res.view.Degraded:
		return view, nil, errDegradedResult
	}
	return res.view, err, nil
}

// sweep computes o's grid rows on the engine pool and emits their NDJSON
// bytes in grid order, whichever row finishes first, each with
// engine.Ordered's ready flag: whether the next row is already done.
// Under the durable policy the first fatal row (see outcome) or emit
// error stops it and is returned; the synchronous policy never stops
// early, and a panicking row becomes an error row, never a hole in the
// stream.
func (s *Server) sweep(ctx context.Context, o *op, durable bool, emit func(row []byte, ready bool) error) error {
	memo, solver := s.memoFor(o), o.solvers[0]
	return engine.Ordered(ctx, len(o.points), s.opts.Workers, func(ctx context.Context, i int) ([]byte, error) {
		p := o.points[i]
		view, rowErr, err := s.outcome(ctx, memo, o, solver, p.Config, durable)
		if err != nil {
			return nil, fmt.Errorf("row %d (%s): %w", i, p.Name, err)
		}
		row := SweepRow{Index: i, Name: p.Name}
		if rowErr != nil {
			row.Error = rowErr.Error()
		} else {
			row = rowFromSnapshot(i, p.Name, &view)
		}
		return json.Marshal(row)
	}, func(i int, row []byte, err error, ready bool) error {
		if err != nil && !durable {
			row, err = json.Marshal(SweepRow{Index: i, Name: o.points[i].Name, Error: err.Error()})
		}
		if err != nil {
			return err
		}
		return emit(row, ready)
	})
}

// compare runs o's scenario through each of its backends on the engine
// pool and assembles the delta table. Under the durable policy the first
// fatal row (see outcome) aborts it; the synchronous policy reports every
// failure, a panic included, as that backend's error row.
func (s *Server) compare(ctx context.Context, o *op, durable bool) (*CompareResponse, error) {
	memo := s.memoFor(o)
	resp := &CompareResponse{SOC: o.chip.Name, SOCHash: o.hash, Rows: make([]CompareRow, len(o.solvers))}
	err := engine.Ordered(ctx, len(o.solvers), s.opts.Workers, func(ctx context.Context, i int) (CompareRow, error) {
		solver := o.solvers[i]
		view, rowErr, err := s.outcome(ctx, memo, o, solver, o.cfg, durable)
		if err != nil {
			return CompareRow{}, fmt.Errorf("solver %s: %w", solver, err)
		}
		row := CompareRow{Solver: solver}
		if rowErr != nil {
			row.Error = rowErr.Error()
		} else {
			fillCompareRow(&row, &view)
		}
		return row, nil
	}, func(i int, row CompareRow, err error, _ bool) error {
		if err != nil && !durable {
			row, err = CompareRow{Solver: o.solvers[i], Error: err.Error()}, nil
		}
		resp.Rows[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	resp.Reference = referenceRow(resp.Rows)
	applyDeltas(resp)
	return resp, nil
}
