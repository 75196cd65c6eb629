package exact_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"multisite/internal/benchdata"
	"multisite/internal/exact"
)

// fixedBound is a Bound pinned to one value.
type fixedBound int

func (b fixedBound) Bound() int { return int(b) }

// tighteningBound lowers itself every time the search reads it, emulating
// a racing heuristic that keeps improving the shared incumbent.
type tighteningBound struct {
	cur atomic.Int64
}

func (b *tighteningBound) Bound() int { return int(b.cur.Load()) }

// corpus yields a few feasible small chips with known optima.
func corpus(t *testing.T) []struct {
	spec benchdata.GenSpec
	seed int
} {
	t.Helper()
	var out []struct {
		spec benchdata.GenSpec
		seed int
	}
	for _, seed := range []int{3, 17, 42, 101, 166} {
		out = append(out, struct {
			spec benchdata.GenSpec
			seed int
		}{benchdata.PropSpec(seed), seed})
	}
	return out
}

// TestSolveWithExternalBoundPreservesOptimum is the determinism property
// the portfolio rests on: seeding the search with any valid upper bound
// (even the optimum itself, even one that keeps tightening mid-search)
// never changes a completed search's answer — the bound only prunes
// subtrees that could not have beaten it.
func TestSolveWithExternalBoundPreservesOptimum(t *testing.T) {
	for _, c := range corpus(t) {
		s := benchdata.Generate(c.spec)
		target := benchdata.PropATE(c.seed)
		base, err := exact.Solve(context.Background(), s, target, exact.Options{})
		if err != nil {
			continue // infeasible corpus point
		}
		for _, slack := range []int{1, 3, 10} {
			sol, err := exact.Solve(context.Background(), s, target,
				exact.Options{Bound: fixedBound(base.Wires + slack)})
			if err != nil {
				t.Fatalf("seed %d bound=opt+%d: %v", c.seed, slack, err)
			}
			if sol.Wires != base.Wires {
				t.Errorf("seed %d bound=opt+%d: wires %d != unbounded %d",
					c.seed, slack, sol.Wires, base.Wires)
			}
		}
	}
}

// TestSolveWithBoundAtOptimumProvesNoImprovement: a bound equal to the
// optimum makes the search exhaust without accepting any leaf; the
// ErrNoImprovement it returns is the optimality proof the portfolio
// converts into Optimal=true for the incumbent that set the bound.
func TestSolveWithBoundAtOptimumProvesNoImprovement(t *testing.T) {
	found := false
	for _, c := range corpus(t) {
		s := benchdata.Generate(c.spec)
		target := benchdata.PropATE(c.seed)
		base, err := exact.Solve(context.Background(), s, target, exact.Options{})
		if err != nil {
			continue
		}
		found = true
		_, err = exact.Solve(context.Background(), s, target,
			exact.Options{Bound: fixedBound(base.Wires)})
		if !errors.Is(err, exact.ErrNoImprovement) {
			t.Errorf("seed %d bound=optimum %d: err = %v, want ErrNoImprovement",
				c.seed, base.Wires, err)
		}
		// One wire above the optimum the search must improve and win.
		sol, err := exact.Solve(context.Background(), s, target,
			exact.Options{Bound: fixedBound(base.Wires + 1)})
		if err != nil {
			t.Fatalf("seed %d bound=opt+1: %v", c.seed, err)
		}
		if sol.Wires != base.Wires {
			t.Errorf("seed %d bound=opt+1: wires %d != optimum %d", c.seed, sol.Wires, base.Wires)
		}
	}
	if !found {
		t.Fatal("corpus degenerated: no feasible seed")
	}
}

// TestOnImprovingMonotone: the improving-solution stream is strictly
// decreasing in wires and ends at the returned optimum.
func TestOnImprovingMonotone(t *testing.T) {
	for _, c := range corpus(t) {
		s := benchdata.Generate(c.spec)
		target := benchdata.PropATE(c.seed)
		var seen []int
		sol, err := exact.Solve(context.Background(), s, target, exact.Options{
			OnImproving: func(sol *exact.Solution) { seen = append(seen, sol.Wires) },
		})
		if err != nil {
			continue
		}
		if len(seen) == 0 {
			t.Errorf("seed %d: no improving solutions emitted", c.seed)
			continue
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] >= seen[i-1] {
				t.Errorf("seed %d: improving stream not strictly decreasing: %v", c.seed, seen)
				break
			}
		}
		if last := seen[len(seen)-1]; last != sol.Wires {
			t.Errorf("seed %d: last emitted %d != final optimum %d", c.seed, last, sol.Wires)
		}
	}
}

// TestTighteningBoundMidSearch drives the racing-heuristic shape: the
// external bound drops while the search runs. The completed answer must
// still equal the unbounded optimum whenever the moving bound stayed
// above it.
func TestTighteningBoundMidSearch(t *testing.T) {
	for _, c := range corpus(t) {
		s := benchdata.Generate(c.spec)
		target := benchdata.PropATE(c.seed)
		base, err := exact.Solve(context.Background(), s, target, exact.Options{})
		if err != nil {
			continue
		}
		b := &tighteningBound{}
		b.cur.Store(int64(base.Wires + 20))
		steps := 0
		sol, err := exact.Solve(context.Background(), s, target, exact.Options{
			Bound: b,
			OnImproving: func(*exact.Solution) {
				// Tighten toward opt+1 as the search progresses.
				steps++
				if v := b.cur.Load(); v > int64(base.Wires+1) {
					b.cur.Store(v - 1)
				}
			},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", c.seed, err)
		}
		if sol.Wires != base.Wires {
			t.Errorf("seed %d: wires %d != unbounded optimum %d (bound tightened %d times)",
				c.seed, sol.Wires, base.Wires, steps)
		}
	}
}

// TestCancelMidSearch cuts the exact search mid-search on any host: on
// the adversarial chip the first improving solution cancels the context,
// and the search, whose visit order is fixed, has far more than one
// cancellation check's worth of partitions left to visit. It must notice
// at its next check and return the context's error with no solution, and
// it must hand no further solution to OnImproving after the cancel.
func TestCancelMidSearch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	sol, err := exact.Solve(ctx, benchdata.Adversarial(), benchdata.AdversarialATE(), exact.Options{
		OnImproving: func(*exact.Solution) { calls++; cancel() },
	})
	if !errors.Is(err, context.Canceled) || sol != nil {
		t.Fatalf("Solve = %+v, %v; want no solution and context.Canceled", sol, err)
	}
	if calls != 1 {
		t.Errorf("OnImproving called %d times; want 1, the call that cancelled", calls)
	}
}
