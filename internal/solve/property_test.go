package solve_test

import (
	"context"
	"fmt"
	"testing"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/core"
	"multisite/internal/exact"
	"multisite/internal/solve"
)

// TestRegistryExactVsHeuristicProperty reruns the PR 4 property-based
// differential — exact vs heuristic on 200 seeded random small SOCs —
// entirely through the solver registry, with the identical corpus and
// thresholds as core's TestStep1VsExactProperty: feasibility implication,
// heuristic wires >= the proven optimum, designs validate, and ≥ 95% of
// feasible seeds within one wire. Passing here proves the registry
// plumbing (backend dispatch, architecture realization, the shared Step 2)
// preserves both algorithms bit-for-bit where it matters: the exact
// backend's Step 1 wires equal the raw branch-and-bound's optimum, and
// the heuristic backend's equal core.Optimize's.
func TestRegistryExactVsHeuristicProperty(t *testing.T) {
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
		cfg := core.Config{
			ATE: ate.ATE{
				Channels: 64 + (seed%4)*64,
				Depth:    int64(8+(seed%5)*14) * benchdata.Ki,
				ClockHz:  5e6,
			},
			Probe: ate.DefaultProbeStation(),
		}
		opt, err := solve.Solve(context.Background(), "exact", s, cfg)
		if err != nil {
			continue // infeasible or oversized corpus points are skipped
		}
		res, err := solve.Solve(context.Background(), "heuristic", s, cfg)
		if err != nil {
			t.Errorf("seed %d: heuristic infeasible where exact found wires=%d: %v",
				seed, opt.Step1.Wires(), err)
			continue
		}
		feasible++
		gap := res.Step1.Wires() - opt.Step1.Wires()
		if gap < 0 {
			t.Errorf("seed %d: heuristic wires %d beat the proven optimum %d — exact backend unsound",
				seed, res.Step1.Wires(), opt.Step1.Wires())
		}
		if gap <= 1 {
			withinOne++
		}
		if gap > worstGap {
			worstGap, worstSeed = gap, seed
		}
		for name, r := range map[string]*core.Result{"exact": opt, "heuristic": res} {
			if err := r.Step1.Validate(); err != nil {
				t.Errorf("seed %d: %s architecture invalid: %v", seed, name, err)
			}
			if r.Step1.TestCycles() > cfg.ATE.Depth {
				t.Errorf("seed %d: %s fill %d exceeds depth %d",
					seed, name, r.Step1.TestCycles(), cfg.ATE.Depth)
			}
		}
		// The realized exact architecture must carry the raw solver's
		// optimal wire count through the registry unchanged.
		if raw, err := exact.Solve(context.Background(), s, cfg.ATE, exact.Options{}); err == nil && raw.Wires != opt.Step1.Wires() {
			t.Errorf("seed %d: registry exact wires %d != raw branch-and-bound %d",
				seed, opt.Step1.Wires(), raw.Wires)
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
