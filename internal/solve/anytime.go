package solve

import (
	"context"
	"errors"
	"sync/atomic"

	"multisite/internal/core"
	"multisite/internal/soc"
)

// ErrTransient marks failures that reflect momentary backend health — an
// injected fault, a recovered panic, an open circuit breaker — rather
// than a property of the input. Wrapping layers (fault injection,
// resilience) wrap their errors around it, and the caching tiers use it
// as the "do not cache" signal: a transient failure replayed from a cache
// would outlive the condition that caused it.
var ErrTransient = errors.New("transient backend failure")

// Incumbent is a shared, concurrency-safe exclusive upper bound on Step 1
// wires: the best wire count any racing backend has realized so far. The
// zero value means "no bound yet". An exact search seeded with an
// Incumbent prunes from the first node (exact.Bound is satisfied).
type Incumbent struct {
	bound atomic.Int64
}

// Bound returns the current exclusive upper bound, 0 if none yet.
func (inc *Incumbent) Bound() int { return int(inc.bound.Load()) }

// Tighten lowers the bound to wires if that is an improvement, reporting
// whether it was. Non-positive wire counts are ignored.
func (inc *Incumbent) Tighten(wires int) bool {
	if wires <= 0 {
		return false
	}
	for {
		cur := inc.bound.Load()
		if cur != 0 && int64(wires) >= cur {
			return false
		}
		if inc.bound.CompareAndSwap(cur, int64(wires)) {
			return true
		}
	}
}

// AnytimeSolver is the optional anytime extension of Solver: a backend
// that can share an incumbent bound with concurrent backends and stream
// improving designs as it lands on them.
//
// SolveAnytime behaves like Solve with two hooks, both optional (nil):
// inc is a shared upper bound the backend must Tighten with every design
// it realizes and may use to prune its own search; observe receives each
// realized improving design, on the solving goroutine, before the final
// return. Wrapping solvers (resilience, fault injection) implement it
// over any backend by delegating through SolveAnytimeOf, so a backend
// stays anytime through any stack.
type AnytimeSolver interface {
	Solver
	SolveAnytime(ctx context.Context, s *soc.SOC, cfg core.Config, inc *Incumbent, observe func(*core.Result)) (*core.Result, error)
}

// SolveAnytimeOf runs sv through its anytime path when it has one, and
// degrades to plain Solve otherwise — the fallback still tightens the
// incumbent and reports its one final result to observe, so portfolio
// callers treat every backend uniformly.
func SolveAnytimeOf(ctx context.Context, sv Solver, s *soc.SOC, cfg core.Config, inc *Incumbent, observe func(*core.Result)) (*core.Result, error) {
	if a, ok := sv.(AnytimeSolver); ok {
		return a.SolveAnytime(ctx, s, cfg, inc, observe)
	}
	res, err := sv.Solve(ctx, s, cfg)
	if err != nil {
		return nil, err
	}
	if inc != nil {
		inc.Tighten(res.Step1.Wires())
	}
	if observe != nil {
		observe(res)
	}
	return res, nil
}
