package engine

import (
	"context"
	"errors"
	"sync/atomic"

	"multisite/internal/ate"
	"multisite/internal/core"
	"multisite/internal/resultcache"
	"multisite/internal/soc"
	"multisite/internal/solve"
	"multisite/internal/tam"
)

// memoCapacity bounds every memo to this many cached designs, evicted
// least recently used. A sweep's grid order requests each design key on
// consecutive jobs, so eviction only recomputes a design a later,
// unrelated request asks for again; a long-running server's keys include
// client-controlled ATE fields, so the bound keeps them from growing
// process memory without limit.
const memoCapacity = 256

// designKey identifies everything the Step 1+2 architecture design depends
// on, the solver backend included: "exact" and "heuristic" designs for one
// (SOC, ATE, TAM) must never alias (see TestMemoSolverDimension).
// Cost-model fields (probe timing, yields, abort, re-test, control
// pins) deliberately do not appear: they only affect scoring, which
// Result.Rescore recomputes per job.
type designKey struct {
	soc    *soc.SOC
	ate    ate.ATE
	tam    tam.Options
	solver string
}

// outcome is what a design key memoizes: its design, or the
// deterministic error designing it produced.
type outcome struct {
	res *core.Result
	err error
}

// memoCounts are a memo's request and design counters, shared by the
// memos Scope derives from it.
type memoCounts struct {
	requests atomic.Int64
	misses   atomic.Int64
}

// Memo caches Step 1+2 architecture designs keyed on (solver, SOC, ATE,
// TAM options). The design is the expensive part of a job — wrapper fitting,
// the greedy channel-group search, the squeeze portfolio — while re-scoring
// a cached design under a different cost model is a few float operations
// per site count. A grid sweep over y yield variants of the same tester
// therefore pays for one design, not y.
//
// The designs live in a resultcache.Store of exactly 256 entries, so a
// design can be evicted and recomputed; a recomputed design is identical
// to the evicted one. SOC identity is pointer identity: use the memoized
// benchdata.Shared chips (or any stable *soc.SOC) for sweeps. A Memo is
// safe for concurrent use and may be shared across Runs to memoize a
// whole session — the serving layer keeps one per process.
type Memo struct {
	designs  *resultcache.Store[designKey, outcome]
	counts   *memoCounts
	resolver func(name string) (solve.Solver, error)
}

// NewMemo returns an empty memo with its own counters.
func NewMemo() *Memo { return newMemo(new(memoCounts), nil) }

func newMemo(counts *memoCounts, resolver func(name string) (solve.Solver, error)) *Memo {
	return &Memo{
		designs:  resultcache.NewOf[designKey, outcome](resultcache.Options{Capacity: memoCapacity}),
		counts:   counts,
		resolver: resolver,
	}
}

// Scope returns an empty memo that shares m's resolver and counters but
// none of its designs: the serving layer gives each uploaded chip's
// request one, so the upload's designs count in m's Stats without
// outliving the request.
func (m *Memo) Scope() *Memo { return newMemo(m.counts, m.resolver) }

// SetResolver overrides the registry lookup DesignSolverCtx dispatches
// through: the serving layer installs its per-server resolver so designs
// run behind that server's circuit breakers and fault-injection wrappers
// while the cache key keeps using the backend's canonical name. Set it
// before the memo is shared across goroutines; nil restores solve.Get.
func (m *Memo) SetResolver(r func(name string) (solve.Solver, error)) { m.resolver = r }

func (m *Memo) resolve(name string) (solve.Solver, error) {
	if m.resolver != nil {
		return m.resolver(name)
	}
	return solve.Get(name)
}

// designConfig is the canonical configuration a key's design is computed
// under: cost-model fields zeroed, so the cached core.Result is identical
// no matter which job populated the entry.
func designConfig(cfg core.Config) core.Config {
	return core.Config{ATE: cfg.ATE, TAM: cfg.TAM}
}

// DesignSolverCtx returns the architecture portfolio for the
// configuration's design key, computing it at most once per key. The
// design is produced by the named registry backend (empty means the
// default heuristic) and cached under a key that includes the solver's
// canonical name, so two backends' designs for one (SOC, ATE, TAM) never
// alias. An unknown solver name errors immediately and is never cached.
//
// The returned Result is the backend's, as returned, and shared across
// jobs: callers must treat it as read-only and re-score it via Rescore
// (its Best reflects the canonical design-time cost model, not any
// particular job's). A design holds no curve: it is its Step 1
// architecture, its Step 2 snapshots (the widths of Step 1's groups per
// distinct widening budget), its best point and its flags. Rescore reads
// the snapshots without building an architecture; Result.ArchAt builds
// one.
//
// A deterministic design error is memoized like a design. A cancellation
// (it reflects the request's deadline), a transient backend failure (an
// open breaker or injected fault outlives its cause when replayed) and a
// degraded best-effort result (a retry may do better) are delivered but
// never cached; a panicking design propagates its panic and caches
// nothing. Concurrent requests for one key compute once (singleflight);
// a waiter whose own context expires unblocks with that context's error,
// and a waiter whose compute was cancelled retries under its own context.
func (m *Memo) DesignSolverCtx(ctx context.Context, solver string, s *soc.SOC, cfg core.Config) (*core.Result, error) {
	sv, err := m.resolve(solver)
	if err != nil {
		return nil, err
	}
	m.counts.requests.Add(1)
	key := designKey{soc: s, ate: cfg.ATE, tam: cfg.TAM, solver: sv.Name()}
	o, _, err := m.designs.DoCond(ctx, key, func(ctx context.Context) (outcome, bool, error) {
		m.counts.misses.Add(1)
		res, err := sv.Solve(ctx, s, designConfig(cfg))
		switch {
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded), errors.Is(err, solve.ErrTransient):
			return outcome{}, false, err // not the key's answer: never stored
		case err != nil:
			return outcome{err: err}, true, nil // deterministic: memoized
		}
		return outcome{res: res}, !res.Degraded, nil
	})
	if err != nil {
		return nil, err
	}
	return o.res, o.err
}

// Stats reports the memo's request and design counts: hits = requests −
// misses. A sweep of j jobs over d distinct design keys reports j requests
// and d misses once it completes. Memos derived by Scope count here too.
func (m *Memo) Stats() (requests, misses int64) {
	return m.counts.requests.Load(), m.counts.misses.Load()
}

// Len returns the number of currently cached designs.
func (m *Memo) Len() int { return m.designs.Len() }
