package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"multisite/internal/ate"
	"multisite/internal/core"
	"multisite/internal/soc"
	"multisite/internal/solve"
	"multisite/internal/tam"
)

// designKey identifies everything the Step 1+2 architecture design depends
// on, the solver backend included: "exact" and "heuristic" designs for one
// (SOC, ATE, TAM) must never alias (see TestMemoSolverDimension).
// Cost-model fields (probe timing, yields, abort, re-test, control
// pins) deliberately do not appear: they only affect scoring, which
// Result.ReEvaluate recomputes per job.
type designKey struct {
	soc    *soc.SOC
	ate    ate.ATE
	tam    tam.Options
	solver string
}

// memoEntry computes its design exactly once, even when many workers
// request the same key concurrently. done is closed when res/err are
// final; waiters select against their own context so a slow design never
// pins a cancelled request.
type memoEntry struct {
	done chan struct{}
	res  *core.Result
	err  error
}

// Memo caches Step 1+2 architecture designs keyed on (solver, SOC, ATE,
// TAM options). The design is the expensive part of a job — wrapper fitting,
// the greedy channel-group search, the squeeze portfolio — while re-scoring
// a cached design under a different cost model is a few float operations
// per site count. A grid sweep over y yield variants of the same tester
// therefore pays for one design, not y.
//
// SOC identity is pointer identity: use the memoized benchdata.Shared
// chips (or any stable *soc.SOC) for sweeps. A Memo is safe for concurrent
// use and may be shared across Runs to memoize a whole session — the
// serving layer keeps one per process.
type Memo struct {
	entries  sync.Map // designKey -> *memoEntry
	size     atomic.Int64
	maxSize  int64 // 0 = unbounded
	requests atomic.Int64
	misses   atomic.Int64
	resolver func(name string) (solve.Solver, error)
}

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

// NewMemo returns an empty, unbounded memo — right for sweeps and
// experiment sessions, whose design-key space is fixed by construction.
func NewMemo() *Memo { return &Memo{} }

// NewMemoBounded returns a memo holding at most maxDesigns cached
// designs: inserting past the bound resets the memo wholesale (designs
// recompute on demand; no LRU bookkeeping on the hot path). Use it when
// the key space is client-controlled — a long-running server must not
// let requests iterating ATE parameters grow process memory without
// limit. Around a reset, concurrent requests for one key may briefly
// compute it twice; exactly-once holds away from the capacity boundary.
func NewMemoBounded(maxDesigns int) *Memo {
	if maxDesigns < 1 {
		maxDesigns = 1
	}
	return &Memo{maxSize: int64(maxDesigns)}
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
// The returned Result is shared: callers must treat it as read-only and
// re-score it via ReEvaluate (the embedded Curve/Best reflect the
// canonical design-time cost model, not any particular job's). Sharing is
// two-level: the Result is shared across jobs, and within it
// Result.Arches shares one architecture snapshot across site counts whose
// widening budgets coincide — both are safe because evaluation never
// mutates an architecture.
//
// Cancellation semantics fit a serving layer: concurrent requests for one
// key still compute exactly once (singleflight), but a waiter whose own
// context expires unblocks immediately with that context's error while
// the computation proceeds for the others. If the computing request
// itself is cancelled mid-design, the poisoned entry is dropped so the
// next request recomputes instead of replaying a stale cancellation error
// forever.
func (m *Memo) DesignSolverCtx(ctx context.Context, solver string, s *soc.SOC, cfg core.Config) (*core.Result, error) {
	sv, err := m.resolve(solver)
	if err != nil {
		return nil, err
	}
	m.requests.Add(1)
	key := designKey{soc: s, ate: cfg.ATE, tam: cfg.TAM, solver: sv.Name()}
	for {
		v, ok := m.entries.Load(key)
		if !ok {
			if m.maxSize > 0 && m.size.Load() >= m.maxSize {
				// Full: reset before inserting. In-flight computers and
				// their waiters hold entry pointers and are unaffected;
				// only future lookups recompute.
				m.entries.Clear()
				m.size.Store(0)
			}
			e := &memoEntry{done: make(chan struct{})}
			if actual, raced := m.entries.LoadOrStore(key, e); raced {
				v = actual
			} else {
				m.size.Add(1)
				m.misses.Add(1)
				e.res, e.err = sv.Solve(ctx, s, designConfig(cfg))
				if uncacheable(e.res, e.err) {
					// Do not cache a cancellation (it reflects this
					// request's deadline), a transient backend failure
					// (an open breaker or injected fault outlives its
					// cause when replayed), or a degraded best-effort
					// result (a retry may do better).
					if m.entries.CompareAndDelete(key, e) {
						m.size.Add(-1)
					}
				}
				close(e.done)
				return e.res, e.err
			}
		}
		e := v.(*memoEntry)
		select {
		case <-e.done:
			if isCancellation(e.err) {
				// The computing request was cancelled; its entry was
				// unlinked by the computer. Retry under our own context.
				if m.entries.CompareAndDelete(key, e) {
					m.size.Add(-1)
				}
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				continue
			}
			return e.res, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// uncacheable reports whether a design outcome must not be memoized:
// cancellations, transient backend failures, and degraded best-effort
// results all reflect the moment they were computed, not the scenario.
// Waiters joined to an uncacheable compute still share its outcome
// (cancellations retry instead); only future lookups recompute.
func uncacheable(res *core.Result, err error) bool {
	if err != nil {
		return isCancellation(err) || errors.Is(err, solve.ErrTransient)
	}
	return res != nil && res.Degraded
}

// Stats reports the memo's request and design counts: hits = requests −
// misses. A sweep of j jobs over d distinct design keys reports j requests
// and d misses once it completes.
func (m *Memo) Stats() (requests, misses int64) {
	return m.requests.Load(), m.misses.Load()
}

// Len returns the number of currently cached designs.
func (m *Memo) Len() int { return int(m.size.Load()) }
