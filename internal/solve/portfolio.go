package solve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"multisite/internal/core"
	"multisite/internal/exact"
	"multisite/internal/soc"
)

// PortfolioName is the registry key of the anytime portfolio backend.
const PortfolioName = "portfolio"

func init() { Register(NewPortfolio(nil)) }

// portfolioBackends lists the registry names the portfolio races, in
// preference order: ties in the final pick go to the earlier name.
var portfolioBackends = [...]string{DefaultName, "exact"}

// Portfolio is the anytime meta-backend: it races its backends
// concurrently on one scenario, shares a wire-count incumbent between
// them (the heuristic's first design seeds the exact search's pruning
// bound), publishes the best design so far as backends improve, and on a
// context deadline returns the current best marked Degraded instead of an
// error. When the exact leg completes — either with the optimum or by
// exhausting the lattice without beating the incumbent — the result is
// marked Optimal.
//
// Determinism: with no deadline and healthy backends, the raced searches
// are each deterministic, and the final pick compares completed outcomes
// by wire count only, ties to the earlier backend. The wires-only rule is
// what makes the race's internal timing invisible: when both legs land on
// equal wires, the exact leg either finishes its own equal-wire partition
// or prunes against the heuristic's incumbent and reports
// ErrNoImprovement — which of the two happens depends on timing, but
// under wires-only the pick is the earlier backend's design either way.
// Under a deadline or a transient backend failure the result does depend
// on timing — exactly the runs flagged Degraded, which the caching tiers
// refuse to store.
type Portfolio struct {
	resolve func(name string) (Solver, error)
}

// NewPortfolio builds a portfolio backend that resolves the backends it
// races through resolve; nil means the process-global registry (Get).
// The serving layer passes its own resolver so the raced backends carry
// that server's circuit breakers and fault-injection wrappers.
func NewPortfolio(resolve func(name string) (Solver, error)) *Portfolio {
	if resolve == nil {
		resolve = Get
	}
	return &Portfolio{resolve: resolve}
}

func (p *Portfolio) Name() string { return PortfolioName }

func (p *Portfolio) Info() Info {
	return Info{
		Name:        PortfolioName,
		Description: "races heuristic + exact with a shared incumbent; best-so-far on deadline (degraded), proven optimum when the exact leg completes",
		Complexity:  "max of the raced backends, cut short by the deadline",
		MaxModules:  0, // the heuristic leg keeps any SOC feasible
	}
}

// Solve runs the race with no external observer.
func (p *Portfolio) Solve(ctx context.Context, s *soc.SOC, cfg core.Config) (*core.Result, error) {
	return p.SolveAnytime(ctx, s, cfg, nil, nil)
}

// outcome is one backend's terminal state in a race.
type outcome struct {
	res *core.Result
	err error
}

// SolveAnytime races the backends. Improving designs flow to observe in
// strictly improving (wires, then test-cycles) order, serialized under
// the portfolio's publish lock. The legs share inc, the caller's
// incumbent when one is supplied and a fresh one otherwise.
func (p *Portfolio) SolveAnytime(ctx context.Context, s *soc.SOC, cfg core.Config, inc *Incumbent, observe func(*core.Result)) (*core.Result, error) {
	if inc == nil {
		inc = &Incumbent{}
	}

	// tracker publishes the best-so-far under a mutex: only strict
	// improvements are kept and forwarded, so observers see a monotone
	// sequence no matter how backend goroutines interleave.
	var (
		mu   sync.Mutex
		best *core.Result
	)
	publish := func(res *core.Result) {
		mu.Lock()
		defer mu.Unlock()
		if best != nil && !better(res, best) {
			return
		}
		best = res
		inc.Tighten(res.Step1.Wires())
		if observe != nil {
			observe(res)
		}
	}

	outcomes := make([]outcome, len(portfolioBackends))
	exactLeg := make([]bool, len(portfolioBackends))
	var wg sync.WaitGroup
	for i, name := range portfolioBackends {
		sv, err := p.resolve(name)
		if err != nil {
			outcomes[i] = outcome{err: err}
			continue
		}
		exactLeg[i] = sv.Info().Exact
		wg.Add(1)
		go func(i int, name string, sv Solver) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					outcomes[i] = outcome{err: fmt.Errorf("portfolio: backend %q panicked: %v: %w", name, r, ErrTransient)}
				}
			}()
			res, err := SolveAnytimeOf(ctx, sv, s, cfg, inc, publish)
			outcomes[i] = outcome{res: res, err: err}
			if err == nil && res != nil {
				publish(res)
			}
		}(i, name, sv)
	}
	wg.Wait()

	// Final pick: the completed outcome with the fewest Step 1 wires,
	// ties to the earlier backend (see the determinism note on the type).
	// An improving design from a leg that then died beats it only on
	// strictly fewer wires — which can only happen on a cancelled or
	// failed leg, i.e. on runs already bound for the Degraded (uncached)
	// path.
	var final *core.Result
	for i := range outcomes {
		o := outcomes[i]
		if o.err != nil || o.res == nil {
			continue
		}
		if final == nil || o.res.Step1.Wires() < final.Step1.Wires() {
			final = o.res
		}
	}
	if best != nil && (final == nil || best.Step1.Wires() < final.Step1.Wires()) {
		final = best
	}

	optimal, transient := false, false
	for i := range outcomes {
		err := outcomes[i].err
		if exactLeg[i] {
			if err == nil {
				optimal = true
			} else if errors.Is(err, exact.ErrNoImprovement) &&
				final != nil && final.Step1.Wires() == inc.Bound() {
				// The exhausted search proves no partition beats the
				// bound; that proof covers the final pick only when the
				// pick is what set the bound.
				optimal = true
			}
		}
		if err != nil && (errors.Is(err, ErrTransient) || isCancellation(err)) {
			transient = true
		}
	}

	if final == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		errs := make([]error, 0, len(outcomes))
		for i := range outcomes {
			if outcomes[i].err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", portfolioBackends[i], outcomes[i].err))
			}
		}
		return nil, fmt.Errorf("portfolio: no backend produced a design: %w", errors.Join(errs...))
	}
	final.Optimal = optimal
	final.Degraded = !optimal && (ctx.Err() != nil || transient)
	return final, nil
}

// better reports a strict improvement: fewer Step 1 wires, or equal wires
// and a shorter Step 1 test.
func better(a, b *core.Result) bool {
	aw, bw := a.Step1.Wires(), b.Step1.Wires()
	if aw != bw {
		return aw < bw
	}
	return a.Step1.TestCycles() < b.Step1.TestCycles()
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
