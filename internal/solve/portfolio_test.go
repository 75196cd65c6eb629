package solve_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/core"
	"multisite/internal/faultinject"
	"multisite/internal/solve"
)

func propConfig(seed int) core.Config {
	return core.Config{ATE: benchdata.PropATE(seed), Probe: ate.DefaultProbeStation()}
}

func adversarialConfig() core.Config {
	return core.Config{ATE: benchdata.AdversarialATE(), Probe: ate.DefaultProbeStation()}
}

// TestPortfolioOptimalWithoutDeadline: on chips the exact search finishes,
// the portfolio returns the proven optimum, marked Optimal and never
// Degraded — identical wires to the exact backend alone.
func TestPortfolioOptimalWithoutDeadline(t *testing.T) {
	for _, seed := range []int{3, 42, 166} {
		s := benchdata.Generate(benchdata.PropSpec(seed))
		cfg := propConfig(seed)
		opt, err := solve.Solve(context.Background(), "exact", s, cfg)
		if err != nil {
			continue
		}
		res, err := solve.Solve(context.Background(), "portfolio", s, cfg)
		if err != nil {
			t.Fatalf("seed %d: portfolio: %v", seed, err)
		}
		if !res.Optimal || res.Degraded {
			t.Errorf("seed %d: optimal=%v degraded=%v, want true/false", seed, res.Optimal, res.Degraded)
		}
		if res.Step1.Wires() != opt.Step1.Wires() {
			t.Errorf("seed %d: portfolio wires %d != exact optimum %d",
				seed, res.Step1.Wires(), opt.Step1.Wires())
		}
		if err := res.Step1.Validate(); err != nil {
			t.Errorf("seed %d: portfolio architecture invalid: %v", seed, err)
		}
	}
}

// TestPortfolioDegradedOnDeadline is the graceful-degradation contract on
// the crafted adversarial chip: a deadline cuts the exact leg, and the
// portfolio returns the best feasible design so far (at worst the
// heuristic's) marked Degraded, with a nil error, instead of surfacing
// the deadline. The exact leg hangs until the deadline, so the cut lands
// first on any host; exact's own mid-search cancellation is
// TestCancelMidSearch's (internal/exact).
func TestPortfolioDegradedOnDeadline(t *testing.T) {
	s := benchdata.Adversarial()
	cfg := adversarialConfig()
	heur, err := solve.Solve(context.Background(), "heuristic", s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultinject.ParsePlan("hang,repeat")
	if err != nil {
		t.Fatal(err)
	}
	p := solve.NewPortfolio(func(name string) (solve.Solver, error) {
		sv, err := solve.Get(name)
		if err != nil || name != "exact" {
			return sv, err
		}
		return faultinject.Wrap(sv, plan), nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	res, err := p.Solve(ctx, s, cfg)
	if err != nil {
		t.Fatalf("portfolio under deadline: %v (want degraded result, not error)", err)
	}
	if !res.Degraded || res.Optimal {
		t.Errorf("degraded=%v optimal=%v, want true/false", res.Degraded, res.Optimal)
	}
	if got, max := res.Step1.Wires(), heur.Step1.Wires(); got > max {
		t.Errorf("degraded wires %d worse than heuristic alone %d", got, max)
	}
	if err := res.Step1.Validate(); err != nil {
		t.Errorf("degraded architecture invalid: %v", err)
	}
	if res.Step1.TestCycles() > cfg.ATE.Depth {
		t.Errorf("degraded fill %d exceeds depth %d", res.Step1.TestCycles(), cfg.ATE.Depth)
	}
}

// TestPortfolioHeuristicOnlyOnFailedExact: an exact leg that fails
// transiently (injected error / hang) leaves the heuristic leg to answer;
// the result is Degraded — a transient failure must not be cached as if
// it were the scenario's true answer.
func TestPortfolioHeuristicOnlyOnFailedExact(t *testing.T) {
	s := benchdata.Generate(benchdata.PropSpec(42))
	cfg := propConfig(42)
	heur, err := solve.Solve(context.Background(), "heuristic", s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"error", "panic"} {
		plan, err := faultinject.ParsePlan(mode + ",repeat")
		if err != nil {
			t.Fatal(err)
		}
		p := solve.NewPortfolio(func(name string) (solve.Solver, error) {
			sv, err := solve.Get(name)
			if err != nil {
				return nil, err
			}
			if name == "exact" {
				return faultinject.Wrap(sv, plan), nil
			}
			return sv, nil
		})
		res, err := p.Solve(context.Background(), s, cfg)
		if err != nil {
			t.Fatalf("%s-mode exact: portfolio errored: %v", mode, err)
		}
		if !res.Degraded || res.Optimal {
			t.Errorf("%s-mode exact: degraded=%v optimal=%v, want true/false", mode, res.Degraded, res.Optimal)
		}
		if res.Step1.Wires() != heur.Step1.Wires() {
			t.Errorf("%s-mode exact: wires %d != heuristic's %d", mode, res.Step1.Wires(), heur.Step1.Wires())
		}
	}
}

// TestPortfolioAllBackendsFail: when every leg dies the portfolio finally
// does error — a transient error (so nothing caches it), joining the
// per-backend causes.
func TestPortfolioAllBackendsFail(t *testing.T) {
	s := benchdata.Generate(benchdata.PropSpec(42))
	plan, _ := faultinject.ParsePlan("error,repeat")
	p := solve.NewPortfolio(func(name string) (solve.Solver, error) {
		sv, err := solve.Get(name)
		if err != nil {
			return nil, err
		}
		return faultinject.Wrap(sv, plan), nil
	})
	_, err := p.Solve(context.Background(), s, propConfig(42))
	if err == nil {
		t.Fatal("portfolio with all backends failing returned nil error")
	}
	if !errors.Is(err, solve.ErrTransient) {
		t.Errorf("error %v does not match ErrTransient — it could be cached", err)
	}
}

// TestPortfolioObserveMonotone: the anytime stream is strictly improving
// under the publish lock no matter how the two legs interleave, and the
// final result is at least as good as the last observed design.
func TestPortfolioObserveMonotone(t *testing.T) {
	s := benchdata.Adversarial()
	cfg := adversarialConfig()
	p := solve.NewPortfolio(nil)
	var (
		mu   sync.Mutex
		seen []int
	)
	res, err := p.SolveAnytime(context.Background(), s, cfg, nil, func(r *core.Result) {
		mu.Lock()
		seen = append(seen, r.Step1.Wires())
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 2 {
		t.Fatalf("expected multiple improving designs on the adversarial chip, saw %v", seen)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] > seen[i-1] {
			t.Fatalf("observe stream regressed: %v", seen)
		}
	}
	if res.Step1.Wires() > seen[len(seen)-1] {
		t.Errorf("final wires %d worse than last observed %d", res.Step1.Wires(), seen[len(seen)-1])
	}
	if !res.Optimal {
		t.Errorf("uncut adversarial run should be optimal")
	}
}

// TestPortfolioSharedIncumbent: an external incumbent seeded at the known
// optimum turns the exact leg into a pure optimality proof
// (ErrNoImprovement internally) — and the portfolio still reports
// Optimal when its final pick carries the bound's wire count.
func TestPortfolioSharedIncumbent(t *testing.T) {
	s := benchdata.Generate(benchdata.PropSpec(3))
	cfg := propConfig(3)
	opt, err := solve.Solve(context.Background(), "exact", s, cfg)
	if err != nil {
		t.Skip("seed 3 infeasible for exact")
	}
	inc := &solve.Incumbent{}
	inc.Tighten(opt.Step1.Wires() + 1)
	p := solve.NewPortfolio(nil)
	res, err := p.SolveAnytime(context.Background(), s, cfg, inc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Step1.Wires() != opt.Step1.Wires() {
		t.Errorf("wires %d != optimum %d", res.Step1.Wires(), opt.Step1.Wires())
	}
	if !res.Optimal {
		t.Error("completed run with seeded incumbent not marked Optimal")
	}
	if got := inc.Bound(); got != opt.Step1.Wires() {
		t.Errorf("external incumbent not tightened to the optimum: bound=%d want %d", got, opt.Step1.Wires())
	}
}

// TestSeed166WorstGapRegression pins the property corpus's worst
// heuristic gap — seed 166, where the greedy design needs 69 wires
// against a proven optimum of 12 — and proves the portfolio erases it:
// with no deadline the portfolio returns the optimum (seed 166's exact
// search is instant; only 4 modules are testable).
func TestSeed166WorstGapRegression(t *testing.T) {
	s := benchdata.Generate(benchdata.PropSpec(166))
	cfg := propConfig(166)
	opt, err := solve.Solve(context.Background(), "exact", s, cfg)
	if err != nil {
		t.Fatalf("seed 166 exact: %v", err)
	}
	heur, err := solve.Solve(context.Background(), "heuristic", s, cfg)
	if err != nil {
		t.Fatalf("seed 166 heuristic: %v", err)
	}
	if got, want := heur.Step1.Wires()-opt.Step1.Wires(), 57; got != want {
		t.Errorf("seed 166 gap = %d wires (heuristic %d, exact %d), want the pinned %d — corpus drifted",
			got, heur.Step1.Wires(), opt.Step1.Wires(), want)
	}
	res, err := solve.Solve(context.Background(), "portfolio", s, cfg)
	if err != nil {
		t.Fatalf("seed 166 portfolio: %v", err)
	}
	if res.Step1.Wires() != opt.Step1.Wires() || !res.Optimal {
		t.Errorf("portfolio wires=%d optimal=%v, want optimum %d/true",
			res.Step1.Wires(), res.Optimal, opt.Step1.Wires())
	}
}

// TestPortfolioDeadlineProperty reruns the 200-seed differential with the
// portfolio under a per-seed deadline: the portfolio's gap to the proven
// optimum is never worse than the heuristic's (it races the heuristic, so
// its result is at least that good), it never beats the optimum, and the
// within-one-wire rate holds at >= 95% — the portfolio preserves the
// paper's heuristic-quality floor while usually landing the optimum.
func TestPortfolioDeadlineProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("200-seed differential corpus")
	}
	const seeds = 200
	feasible, withinOne := 0, 0
	worstGap, worstSeed := 0, -1
	for seed := 0; seed < seeds; seed++ {
		s := benchdata.Generate(benchdata.PropSpec(seed))
		cfg := propConfig(seed)
		opt, err := solve.Solve(context.Background(), "exact", s, cfg)
		if err != nil {
			continue
		}
		heur, err := solve.Solve(context.Background(), "heuristic", s, cfg)
		if err != nil {
			t.Errorf("seed %d: heuristic infeasible where exact succeeded: %v", seed, err)
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		res, err := solve.Solve(ctx, "portfolio", s, cfg)
		cancel()
		if err != nil {
			t.Errorf("seed %d: portfolio errored under deadline: %v", seed, err)
			continue
		}
		feasible++
		gap := res.Step1.Wires() - opt.Step1.Wires()
		if gap < 0 {
			t.Errorf("seed %d: portfolio wires %d beat the proven optimum %d", seed, res.Step1.Wires(), opt.Step1.Wires())
		}
		if hg := heur.Step1.Wires() - opt.Step1.Wires(); gap > hg {
			t.Errorf("seed %d: portfolio gap %d worse than heuristic gap %d", seed, gap, hg)
		}
		if gap <= 1 {
			withinOne++
		}
		if gap > worstGap {
			worstGap, worstSeed = gap, seed
		}
		if err := res.Step1.Validate(); err != nil {
			t.Errorf("seed %d: portfolio architecture invalid: %v", seed, err)
		}
	}
	if feasible < 100 {
		t.Fatalf("corpus degenerated: only %d/%d seeds feasible", feasible, seeds)
	}
	t.Logf("feasible=%d withinOneWire=%d (%.1f%%) worstGap=%d (seed %d)",
		feasible, withinOne, 100*float64(withinOne)/float64(feasible), worstGap, worstSeed)
	if frac := float64(withinOne) / float64(feasible); frac < 0.95 {
		t.Errorf("only %.1f%% within one wire of the optimum, want >= 95%%", 100*frac)
	}
}
