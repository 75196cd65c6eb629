// Package server is the optimization-as-a-service layer: a long-running
// HTTP/JSON facade over the repository's compute core, turning the
// library into a system CI jobs, dashboards, and what-if tools can query.
//
// Endpoints:
//
//	POST /v1/optimize — run one optimizer backend for one scenario
//	                    (named or inline SOC); returns a core.Snapshot.
//	POST /v1/sweep    — expand a scenario × axes grid and stream one
//	                    NDJSON row per grid point, in deterministic order.
//	POST /v1/compare  — run N optimizer backends on one scenario and
//	                    return a side-by-side delta table.
//	GET  /v1/solvers  — list the registered optimizer backends.
//	GET  /v1/socs     — list the built-in benchmark SOCs.
//	GET  /healthz     — readiness probe (alias of /readyz: load balancers
//	                    conventionally poll /healthz, and a server still
//	                    replaying its job journal must not receive traffic).
//	GET  /livez       — pure liveness (process up), never load-gated.
//	GET  /readyz      — readiness: jobs journal replayed, ready for traffic.
//	GET  /metrics     — Prometheus-style request and cache counters.
//
// Every compute endpoint takes a "solver" field naming the registered
// backend (internal/solve) that designs the Step 1 architecture; the
// default is the paper's two-step heuristic. The solver name is a
// dimension of both cache tiers' keys, so backends never alias.
//
// Results are cached at two tiers, each a resultcache.Store LRU.
// engine.Memo (pointer-keyed, 256 designs) shares the expensive Step 1+2
// designs across requests and sweep grid points for the built-in
// benchmarks; inline SOCs get a per-request memo, counted in /metrics
// like the shared one, so one upload's sweep still shares designs without
// growing process state. The result cache (content-addressed) stores
// finished optimizes, synchronous or job, keyed on (canonical SOC hash,
// ATE, TAM options, cost model), deduplicating concurrent identical
// requests singleflight-style: a thundering herd of equal /v1/optimize
// calls runs exactly one core.Optimize. Each entry holds the snapshot's
// response bytes, rendered when it is computed, and the few fields the
// headers read, so no hit decodes JSON. No sweep or compare row reaches
// the result cache: without a disk tier a row re-scores the memo's design
// and is stored nowhere, and a disk-backed server keeps row views in a
// store of their own in front of the disk tier (see computeSnapshot). So
// a sweep warms the point-query path only through the memo's designs and
// the disk tier, and vice versa.
//
// Each operation is defined once (op.go). Every compute body — a
// synchronous request, a job submission or replay (jobs.go), a body the
// fleet gateway routes (fleet.go) — is decoded and validated by parseOp,
// which also derives its routing key. Sweep rows and compare rows run on
// engine.Ordered, the one ordered-delivery primitive, under a failure
// policy the caller picks: the synchronous endpoints embed failures as
// error rows, the job runner aborts the attempt on anything a retry could
// improve. A sweep's NDJSON stream is flushed after a row only when the
// next row is not done yet, so a burst of finished rows leaves in one
// write and no row waits in the buffer on one still computing.
//
// Compute is bounded by a server-wide concurrency budget (Options.
// Concurrency) layered under the per-sweep engine worker pool, and every
// request is subject to Options.RequestTimeout via its context, which
// core.OptimizeCtx honors between phases.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"multisite/internal/benchdata"
	"multisite/internal/core"
	"multisite/internal/diskcache"
	"multisite/internal/engine"
	"multisite/internal/jobs"
	"multisite/internal/resilience"
	"multisite/internal/resultcache"
	"multisite/internal/soc"
	"multisite/internal/solve"
)

// maxBodyBytes bounds request bodies; inline SOC descriptions are a few
// hundred KB at the extreme.
const maxBodyBytes = 4 << 20

// maxSweepScenarios bounds one sweep's grid expansion.
const maxSweepScenarios = 4096

// maxCompareSolvers bounds one comparison's backend list; the registry is
// small, so anything beyond this is a malformed (or duplicated) request.
const maxCompareSolvers = 16

// Options tunes a Server.
type Options struct {
	// Workers bounds the engine worker pool each sweep fans out on;
	// 0 means GOMAXPROCS.
	Workers int
	// Concurrency is the server-wide budget of simultaneously running
	// optimizations across all requests; 0 means 2×GOMAXPROCS.
	Concurrency int
	// CacheCapacity bounds the result cache's entries, and a disk-backed
	// server's row views; 0 means resultcache.DefaultCapacity.
	CacheCapacity int
	// RequestTimeout caps one request's compute time; 0 means no limit.
	RequestTimeout time.Duration
	// Breaker tunes the per-backend circuit breakers every registry
	// solver is served behind; the zero value takes the resilience
	// defaults (16-call window, 3 consecutive deadlines, 5s cooldown).
	Breaker resilience.Options
	// WrapSolver, when set, wraps each registry backend as the server
	// adopts it — the chaos hook the -inject flag uses to splice
	// fault-injection schedules under the circuit breakers. The wrapper
	// runs innermost (breaker outside), so injected faults count
	// against the backend's breaker like organic ones.
	WrapSolver func(name string, sv solve.Solver) solve.Solver
	// Logf receives operational log lines (client cancellations,
	// breaker transitions surfaced via metrics); nil means silent.
	Logf func(format string, args ...any)

	// DataDir, when set, enables the durable tier under it: the disk
	// cache (the L2 behind the in-memory resultcache, and the CAS job
	// results live in) and the job journal. Empty means purely
	// in-memory, as New has always built. Honored by NewWithData only.
	DataDir string
	// JobWorkers bounds the durable job pool; 0 means the jobs-package
	// default (2).
	JobWorkers int
	// JobBackoff is the base retry delay for transient job failures,
	// doubled per attempt; 0 means the jobs-package default (250ms).
	JobBackoff time.Duration
	// DiskInject, when set, draws one fault per physical disk operation
	// under the disk cache and the job journal — the chaos hook the
	// -inject-disk flag splices in (see faultinject.DiskPlan).
	DiskInject func(op diskcache.Op) diskcache.Fault
	// JobStallReplay, when non-nil, holds the job recovery pass (and so
	// readiness) until the channel closes — a test hook for the
	// not-ready window. Leave nil in production.
	JobStallReplay <-chan struct{}

	// FleetPeers, when non-empty, puts the server in fleet mode: the
	// full list of peer addresses (host:port, this server included)
	// whose consistent-hash ring partitions the content-addressed key
	// space. FleetSelf names this server's own entry in that list; it
	// must match one of the peers after normalization. Requests whose
	// routing key another peer owns are answered 307 unless a gateway
	// marked them routed (see fleet.go).
	FleetPeers []string
	FleetSelf  string
}

// Server holds the shared state of the serving layer. Create with New;
// serve via Handler.
type Server struct {
	opts  Options
	memo  *engine.Memo
	cache *resultcache.Store[string, cachedResult]
	sem   chan struct{}

	// rows holds sweep and compare rows' views on a disk-backed server,
	// sparing a repeated row its disk read; nil without a disk tier (see
	// computeSnapshot).
	rows *resultcache.Store[string, snapshotView]

	// disk is the persistent L2 behind the in-memory result cache, and
	// the CAS job results live in; jobMgr is the durable job subsystem.
	// Both are nil without a DataDir (see NewWithData).
	disk   *diskcache.Cache
	jobMgr *jobs.Manager

	// fleet is this server's view of the shard ring, nil outside fleet
	// mode (see fleet.go).
	fleet *fleetInfo

	// breakers holds one circuit breaker per registry backend; solvers
	// maps each backend's canonical name to its served instance —
	// Options.WrapSolver innermost, the breaker outermost, and the
	// portfolio rebuilt to race these wrapped instances (itself
	// unwrapped: it degrades, it does not deadline).
	breakers *resilience.Set
	solvers  map[string]solve.Solver

	requests      map[string]*atomic.Int64 // endpoint -> count
	durations     map[string]*histogram    // endpoint -> latency histogram
	sweepRows     atomic.Int64
	inflight      atomic.Int64
	clientCancels atomic.Int64 // requests abandoned by the client mid-compute
	degraded      atomic.Int64 // 200 responses carrying a degraded result
	anytimeEvents atomic.Int64 // NDJSON anytime events streamed
}

// New builds a server over the built-in benchmark SOCs. It panics on an
// inconsistent fleet configuration; NewWithData (which every production
// path goes through) validates and returns the error instead.
func New(opts Options) *Server {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 2 * runtime.GOMAXPROCS(0)
	}
	fl, err := newFleet(opts)
	if err != nil {
		panic(err)
	}
	s := &Server{
		opts:      opts,
		fleet:     fl,
		memo:      engine.NewMemo(),
		cache:     resultcache.NewOf[string, cachedResult](resultcache.Options{Capacity: opts.CacheCapacity}),
		sem:       make(chan struct{}, opts.Concurrency),
		requests:  make(map[string]*atomic.Int64),
		durations: make(map[string]*histogram),
	}

	// Adopt every registry backend behind its own circuit breaker, with
	// the optional chaos wrapper underneath; the portfolio is rebuilt
	// over the server's resolver so its raced legs inherit both layers,
	// and is itself unwrapped — a portfolio leg hitting an open breaker
	// or an injected fault degrades the result, it does not fail it.
	s.breakers = resilience.NewSet(opts.Breaker)
	s.solvers = make(map[string]solve.Solver)
	for _, name := range solve.Names() {
		if name == solve.PortfolioName {
			continue
		}
		sv, err := solve.Get(name)
		if err != nil {
			continue
		}
		if opts.WrapSolver != nil {
			sv = opts.WrapSolver(name, sv)
		}
		s.solvers[name] = resilience.Wrap(sv, s.breakers.For(name))
	}
	s.solvers[solve.PortfolioName] = solve.NewPortfolio(s.solverFor)
	s.memo.SetResolver(s.solverFor)

	for _, ep := range []string{"optimize", "sweep", "compare", "solvers", "socs", "healthz", "readyz", "jobs", "metrics"} {
		s.requests[ep] = &atomic.Int64{}
		s.durations[ep] = &histogram{}
	}
	return s
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", s.instrument("optimize", s.handleOptimize))
	mux.HandleFunc("POST /v1/sweep", s.instrument("sweep", s.handleSweep))
	mux.HandleFunc("POST /v1/compare", s.instrument("compare", s.handleCompare))
	mux.HandleFunc("GET /v1/solvers", s.instrument("solvers", s.handleSolvers))
	mux.HandleFunc("GET /v1/socs", s.instrument("socs", s.handleSOCs))
	// /healthz is an alias of /readyz: load balancers conventionally
	// poll /healthz, and pointing it at liveness would route traffic to
	// a server still replaying its job journal. /livez remains the pure
	// process-up probe.
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleReadyz))
	mux.HandleFunc("GET /livez", s.instrument("healthz", s.handleLivez))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("POST /v1/jobs", s.instrument("jobs", s.handleJobSubmit))
	mux.HandleFunc("GET /v1/jobs", s.instrument("jobs", s.handleJobList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs", s.handleJobGet))
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.instrument("jobs", s.handleJobResult))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	if s.fleet == nil {
		return mux
	}
	// In fleet mode every response names its shard, so any client (or
	// the chaos drill) can verify which peer actually answered.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderShard, s.fleet.label)
		mux.ServeHTTP(w, r)
	})
}

// acquire claims one slot of the server-wide compute budget, or fails
// with the context's error.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		s.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() {
	s.inflight.Add(-1)
	<-s.sem
}

// solverFor resolves a backend name to the server's served instance —
// breaker-wrapped, chaos-wrapped — falling back to the registry for
// names adopted after construction. It is the resolver both the design
// memo and the portfolio dispatch through, so every compute path in the
// process runs behind the same breakers.
func (s *Server) solverFor(name string) (solve.Solver, error) {
	if name == "" {
		name = solve.DefaultName
	}
	if sv, ok := s.solvers[name]; ok {
		return sv, nil
	}
	return solve.Get(name)
}

// logf emits one operational log line, if the server has a sink.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// requestCtx applies the per-request compute deadline: the tighter of
// the server-wide RequestTimeout and the request's own timeout_ms.
func (s *Server) requestCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	timeout := s.opts.RequestTimeout
	if timeoutMS > 0 {
		if d := time.Duration(timeoutMS) * time.Millisecond; timeout == 0 || d < timeout {
			timeout = d
		}
	}
	if timeout > 0 {
		return context.WithTimeout(r.Context(), timeout)
	}
	return context.WithCancel(r.Context())
}

// cachedResult is one result-cache entry, or a row's compute result: the
// view rows and headers read and the snapshot's response bytes, which
// only an optimize keeps. It holds no design, config or closure.
type cachedResult struct {
	view snapshotView
	data []byte
}

// computeSnapshot produces the optimization snapshot for one scenario of
// chip under the named backend (a canonical solver name): the disk tier's
// bytes if it has them, else memo's design re-scored under the scenario's
// cost model. key is the scenario's cachekey.Scenario, which the caller
// derives once. An optimize goes through the result cache; a row, whose
// caller reads only the view, through s.rows if the server has a disk
// tier and through no cache (key unused) if not. A compute holds a slot
// for the design, its re-score and any render, even while DesignSolverCtx
// waits on another request's design, but none while waiting on an entry.
func (s *Server) computeSnapshot(ctx context.Context, memo *engine.Memo, chip *soc.SOC, solver, key string, scenario core.Config, row bool) (cachedResult, bool, error) {
	cfg := scenario.Normalized()
	if err := cfg.ATE.Validate(); err != nil {
		return cachedResult{}, false, err
	}
	if err := cfg.Probe.Validate(); err != nil {
		return cachedResult{}, false, err
	}
	compute := func(ctx context.Context) (cachedResult, bool, error) {
		// The disk tier is consulted inside the singleflight compute, so
		// a thundering herd on a cold in-memory cache still reads the
		// persisted bytes, and decodes their view, exactly once. Every
		// read is checksum-verified; a corrupt entry is quarantined and
		// reported as a miss, never served (diskcache.Get). Bytes that
		// pass the checksum but do not decode are recomputed, and the
		// Put below overwrites them.
		if s.disk != nil {
			if data, ok := s.disk.Get(key); ok {
				var view snapshotView
				err := json.Unmarshal(data, &view)
				if err == nil {
					return cachedResult{view: view, data: data}, true, nil
				}
				s.logf("disk cache entry %s is not a snapshot, recomputing: %v", key, err)
			}
		}
		if err := s.acquire(ctx); err != nil {
			return cachedResult{}, false, err
		}
		defer s.release()
		design, err := memo.DesignSolverCtx(ctx, solver, chip, cfg)
		if err != nil {
			return cachedResult{}, false, err
		}
		// A design holds no curve and the view needs none; a render
		// re-scores into fresh ones.
		best, gain, finite := design.Rescore(cfg, nil, nil)
		view := snapshotView{
			Channels: design.Step1.Channels(),
			MaxSites: design.MaxSites,
			Best:     best,
			Gain:     gain,
			Degraded: design.Degraded,
			Optimal:  design.Optimal,
		}
		// A degraded design is served but never stored — in either tier:
		// the design memo already refused it, and caching its bytes would
		// pin a deadline-cut answer on a key that a later, uncut request
		// would otherwise improve.
		store := !design.Degraded
		spill := store && s.disk != nil
		// A row renders in two cases only. The disk tier's Put takes the
		// bytes. And a NaN or ±Inf, which client input can produce (a
		// vanishing clock_hz makes every test time +Inf), fails encoding:
		// rendering fails the compute with the encoder's error, uncached.
		if row && finite && !spill {
			return cachedResult{view: view}, store, nil
		}
		data, err := renderSnapshot(design, cfg)
		if err != nil {
			return cachedResult{}, false, err
		}
		if spill {
			// Best-effort spill: a failed Put is counted and logged by
			// the disk tier; the in-memory entry still serves.
			s.disk.Put(key, data)
		}
		return cachedResult{view: view, data: data}, store, nil
	}
	switch {
	case !row:
		return s.cache.DoCond(ctx, key, compute)
	case s.rows != nil:
		view, hit, err := s.rows.DoCond(ctx, key, func(ctx context.Context) (snapshotView, bool, error) {
			res, store, err := compute(ctx)
			return res.view, store, err
		})
		return cachedResult{view: view}, hit, err
	}
	res, _, err := compute(ctx)
	return res, false, err
}

// renderSnapshot re-scores design under cfg into fresh curves and
// encodes the snapshot they make up. Encoding fails only on a NaN or
// ±Inf, so only where Rescore reports a score not finite: the snapshot's
// other floats are its config's, which arrive as JSON numbers.
func renderSnapshot(design *core.Result, cfg core.Config) ([]byte, error) {
	curve := make([]core.SiteEval, design.MaxSites)
	step1Curve := make([]core.SiteEval, design.MaxSites)
	best, _, _ := design.Rescore(cfg, curve, step1Curve)
	return design.SnapshotUnder(cfg, curve, step1Curve, best).MarshalBytes()
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	o := s.admit(w, r, "/v1/optimize")
	if o == nil {
		return
	}
	ctx, cancel := s.requestCtx(r, o.timeoutMS)
	defer cancel()
	if o.anytime {
		s.handleOptimizeAnytime(ctx, w, r, o)
		return
	}
	res, cached, err := s.computeSnapshot(ctx, s.memoFor(o), o.chip, o.solvers[0], o.key, o.cfg, false)
	if err != nil {
		writeError(w, s.computeStatus(r, err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheHeader(cached))
	w.Header().Set(HeaderCacheKey, o.key)
	// The provenance flags come from the entry's view, which every tier
	// and every waiter joined to another request's compute receives.
	if res.view.Degraded {
		w.Header().Set("X-Degraded", "true")
		s.degraded.Add(1)
	}
	if res.view.Optimal {
		w.Header().Set("X-Optimal", "true")
	}
	w.Write(res.data)
}

// handleOptimizeAnytime streams one optimization as NDJSON AnytimeEvents:
// a light event per improving design as the backend (usually the
// portfolio) finds them, then exactly one final event with the full
// snapshot and the degraded/optimal provenance. The stream bypasses both
// cache tiers — its value is watching the search move, and its improving
// prefixes must never be mistaken for results — but holds a compute slot
// like any other optimization.
func (s *Server) handleOptimizeAnytime(ctx context.Context, w http.ResponseWriter, r *http.Request, o *op) {
	cfg := o.cfg.Normalized()
	sv, err := s.solverFor(o.solvers[0])
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.acquire(ctx); err != nil {
		writeError(w, s.computeStatus(r, err), err)
		return
	}
	defer s.release()

	flusher, _ := w.(http.Flusher)
	var (
		mu    sync.Mutex
		seq   int
		wrote bool
	)
	enc := json.NewEncoder(w)
	emit := func(ev AnytimeEvent) {
		mu.Lock()
		defer mu.Unlock()
		ev.Seq = seq
		seq++
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Anytime", "true")
			wrote = true
		}
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
		s.anytimeEvents.Add(1)
	}

	res, err := solve.SolveAnytimeOf(ctx, sv, o.chip, cfg, nil, func(r *core.Result) {
		emit(AnytimeEvent{Wires: r.Step1.Wires(), TestCycles: r.Step1.TestCycles()})
	})
	if err != nil {
		mu.Lock()
		headersFree := !wrote
		mu.Unlock()
		if headersFree {
			// Nothing streamed yet: a plain error response with a real
			// status beats a 200 whose only line is an error event.
			writeError(w, s.computeStatus(r, err), err)
			return
		}
		emit(AnytimeEvent{Final: true, Error: err.Error()})
		return
	}
	if res.Degraded {
		s.degraded.Add(1)
	}
	emit(AnytimeEvent{
		Wires: res.Step1.Wires(), TestCycles: res.Step1.TestCycles(),
		Final: true, Degraded: res.Degraded, Optimal: res.Optimal,
		Snapshot: res.Snapshot(),
	})
}

// handleSweep streams a sweep's rows as NDJSON in grid order. It flushes
// after a row only when the next row is not done yet (engine.Ordered's
// ready flag): a burst of rows that are already done — re-scores of a
// design the memo holds — leaves in one write, and a row never waits in
// the buffer on a row that is still computing, such as the first row of
// a design another worker is computing.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	o := s.admit(w, r, "/v1/sweep")
	if o == nil {
		return
	}
	ctx, cancel := s.requestCtx(r, o.timeoutMS)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Scenarios", fmt.Sprint(len(o.points)))
	flusher, _ := w.(http.Flusher)
	// Rows arrive one at a time (ResponseWriter is not concurrency-safe),
	// in grid order. A cancelled context (client gone, timeout) simply
	// truncates the stream; rows already delivered are valid NDJSON.
	s.sweep(ctx, o, false, func(row []byte, ready bool) error {
		w.Write(row)
		w.Write([]byte("\n"))
		if !ready && flusher != nil {
			flusher.Flush()
		}
		s.sweepRows.Add(1)
		return nil
	})
}

// handleSolvers lists the registered optimizer backends — the menu the
// solver fields of /v1/optimize, /v1/sweep, and /v1/compare accept.
func (s *Server) handleSolvers(w http.ResponseWriter, r *http.Request) {
	infos := solve.Infos()
	out := make([]SolverEntry, 0, len(infos))
	for _, info := range infos {
		out = append(out, SolverEntry{Info: info, Default: info.Name == solve.DefaultName})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Default string        `json:"default"`
		Solvers []SolverEntry `json:"solvers"`
	}{solve.DefaultName, out})
}

// handleCompare runs one scenario through N optimizer backends and
// returns a side-by-side delta table — the paper's Table 3-style
// heuristic-vs-exact-vs-baseline comparison as a single API call. Each
// backend's row is computed like a sweep row (see computeSnapshot; the
// solver is a key dimension of every tier); backends run concurrently
// on the engine pool, and one infeasible backend (the exact solver on a
// too-large SOC) becomes an error row, not a failed request.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	o := s.admit(w, r, "/v1/compare")
	if o == nil {
		return
	}
	ctx, cancel := s.requestCtx(r, o.timeoutMS)
	defer cancel()
	resp, err := s.compare(ctx, o, false)
	if err == nil {
		// The whole comparison shares one deadline; a partial table would
		// silently misreport the slow backends.
		err = ctx.Err()
	}
	if err != nil {
		writeError(w, s.computeStatus(r, err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// fillCompareRow projects a snapshot view onto a comparison row.
func fillCompareRow(row *CompareRow, view *snapshotView) {
	row.Wires = view.Channels / 2
	row.Channels = view.Channels
	row.MaxSites = view.MaxSites
	row.Sites = view.Best.Sites
	row.TestCycles = view.Best.TestCycles
	row.TestTimeSec = view.Best.TestTimeSec
	row.Throughput = view.Best.Throughput
	row.UniqueThroughput = view.Best.UniqueThroughput
	row.GainOverStep1 = view.Gain
	row.Degraded = view.Degraded
	row.Optimal = view.Optimal
}

// referenceRow picks the solver the delta columns are measured against:
// the default heuristic when it succeeded, else the first successful row.
func referenceRow(rows []CompareRow) string {
	first := ""
	for _, r := range rows {
		if r.Error != "" {
			continue
		}
		if r.Solver == solve.DefaultName {
			return r.Solver
		}
		if first == "" {
			first = r.Solver
		}
	}
	return first
}

// applyDeltas fills the delta columns of every successful non-reference
// row, relative to the reference row.
func applyDeltas(resp *CompareResponse) {
	var ref *CompareRow
	for i := range resp.Rows {
		if resp.Rows[i].Solver == resp.Reference {
			ref = &resp.Rows[i]
			break
		}
	}
	if ref == nil {
		return
	}
	for i := range resp.Rows {
		row := &resp.Rows[i]
		if row.Error != "" || row.Solver == resp.Reference {
			continue
		}
		dw := row.Wires - ref.Wires
		ds := row.Sites - ref.Sites
		row.DeltaWires = &dw
		row.DeltaSites = &ds
		if ref.Throughput > 0 {
			dt := 100 * (row.Throughput/ref.Throughput - 1)
			row.DeltaThroughputPct = &dt
		}
		dg := row.GainOverStep1 - ref.GainOverStep1
		row.DeltaGain = &dg
	}
}

func (s *Server) handleSOCs(w http.ResponseWriter, r *http.Request) {
	names := benchdata.Names()
	out := make([]SOCInfo, 0, len(names))
	for _, name := range names {
		chip := benchdata.Shared(name)
		out = append(out, SOCInfo{
			Name:          name,
			Hash:          builtinHashes[name],
			Modules:       len(chip.Modules),
			Testable:      len(chip.TestableModules()),
			TotalTestBits: chip.TotalTestBits(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		SOCs []SOCInfo `json:"socs"`
	}{out})
}

// statusClientClosedRequest is nginx's convention for "the client went
// away before we could answer" — never actually delivered (the client is
// gone), but it keeps abandoned requests out of the 504 books.
const statusClientClosedRequest = 499

// computeStatus maps a compute failure to an HTTP status. The client's
// own departure is checked first — a cancelled request context also
// cancels the compute, and accounting the resulting error as a server
// timeout would let impatient clients masquerade as server degradation.
// Then: the server's deadline is a 504; a transient backend failure (an
// open breaker, an injected fault) is a 503, retryable by contract;
// everything else is the client's input (422).
func (s *Server) computeStatus(r *http.Request, err error) int {
	if r.Context().Err() != nil {
		s.clientCancels.Add(1)
		s.logf("client closed request %s %s mid-compute: %v", r.Method, r.URL.Path, err)
		return statusClientClosedRequest
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, solve.ErrTransient):
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

func cacheHeader(cached bool) string {
	if cached {
		return "hit"
	}
	return "miss"
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}
