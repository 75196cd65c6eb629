package core

import (
	"context"
	"fmt"
	"testing"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/exact"
)

// TestStep1VsExactProperty is the property-based differential harness: on
// 200 seeded random small SOCs (benchdata.Generate, ≤ 7 testable modules
// so the exact branch-and-bound stays cheap) it checks, per seed, that
//
//   - whenever the exact solver finds a feasible design, the heuristic
//     finds one too,
//   - the heuristic's wire usage is ≥ the proven optimum (a heuristic
//     "beating" the exact solver would mean the solver is unsound), and
//   - the designed architecture validates.
//
// In aggregate it asserts the paper's expected near-optimality: at least
// 95% of feasible seeds within one wire of the optimum (measured: 97.6%,
// 159/168 exactly optimal). The worst-case gap is logged, not failed on:
// adversarially generated memory-heavy chips can trigger a known greedy
// pathology (the free-memory rule runaway-widens a functional-port-tested
// memory, and the squeeze stops at a spuriously infeasible cap), which
// the corpus deliberately keeps visible.
func TestStep1VsExactProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("200-seed differential corpus")
	}
	const seeds = 200
	feasible, withinOne := 0, 0
	worstGap, worstSeed := 0, -1
	for seed := 0; seed < seeds; seed++ {
		spec := benchdata.GenSpec{
			Name: fmt.Sprintf("prop%03d", seed), Seed: int64(1000 + seed),
			LogicCores:  2 + seed%5,
			MemoryCores: seed % 3,
			TargetArea:  int64(64+(seed%7)*32) * benchdata.Ki,
			Spread:      0.5 + float64(seed%4)*0.5,
			MaxChainLen: 64 + (seed%3)*96,
		}
		s := benchdata.Generate(spec)
		target := ate.ATE{
			Channels: 64 + (seed%4)*64,
			Depth:    int64(8+(seed%5)*14) * benchdata.Ki,
			ClockHz:  5e6,
		}
		sol, err := exact.Solve(context.Background(), s, target, exact.Options{})
		if err != nil {
			continue // infeasible or oversized corpus points are skipped
		}
		res, err := Optimize(s, Config{ATE: target, Probe: ate.DefaultProbeStation()})
		if err != nil {
			t.Errorf("seed %d: heuristic infeasible where exact found wires=%d: %v", seed, sol.Wires, err)
			continue
		}
		feasible++
		gap := exact.Gap(res.Step1.Wires(), sol)
		if gap < 0 {
			t.Errorf("seed %d: heuristic wires %d beat the proven optimum %d — exact solver unsound",
				seed, res.Step1.Wires(), sol.Wires)
		}
		if gap <= 1 {
			withinOne++
		}
		if gap > worstGap {
			worstGap, worstSeed = gap, seed
		}
		if err := res.Step1.Validate(); err != nil {
			t.Errorf("seed %d: step 1 architecture invalid: %v", seed, err)
		}
		if res.Step1.TestCycles() > target.Depth {
			t.Errorf("seed %d: step 1 fill %d exceeds depth %d", seed, res.Step1.TestCycles(), target.Depth)
		}
	}
	if feasible < 100 {
		t.Fatalf("corpus degenerated: only %d/%d seeds feasible", feasible, seeds)
	}
	t.Logf("feasible=%d withinOneWire=%d (%.1f%%) worstGap=%d wires (seed %d)",
		feasible, withinOne, 100*float64(withinOne)/float64(feasible), worstGap, worstSeed)
	if frac := float64(withinOne) / float64(feasible); frac < 0.95 {
		t.Errorf("only %.1f%% of feasible seeds within one wire of the exact optimum, want >= 95%%", 100*frac)
	}
}
