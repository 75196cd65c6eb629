package benchdata

import (
	"fmt"

	"multisite/internal/ate"
	"multisite/internal/soc"
)

// Adversarial returns a 12-module chip built to stall the exact
// branch-and-bound while staying trivial for the heuristic — the test
// fixture for every deadline, degradation, and portfolio path.
//
// All modules are functional-port-tested memories, so each one's
// (width, cycles) trade-off curve is the same flat hyperbola shape and
// the search degenerates into pure bin packing: the monotone wire bound
// prunes almost nothing because nearly every prefix of nearly every
// partition still looks like it could fit. Pattern counts step by a
// prime-ish 61 to kill the symmetry that would otherwise let canonical
// partition enumeration skip equivalent branches. Measured on a 2-core
// Intel Xeon (Go 1.24) at ATE Channels=256, Depth=16000: the exact
// search takes ~0.37s (optimum 29 wires) where the heuristic answers in
// ~0.2ms (34 wires) — three orders of magnitude apart, so a deadline of
// 300ms or less cuts the exact leg and never the heuristic one. (The
// search took ~1.3s before the wrapper designer's time tables got
// faster; varying these modules' ports and pattern counts, within
// MaxModules, reached at most ~0.8s.)
//
// The chip is deliberately NOT in Names(): it exists to be slow, and
// listing it would poison the benchmark pools (loadgen traffic, the
// /v1/socs golden) with a worst case.
func Adversarial() *soc.SOC {
	s := &soc.SOC{Name: "adversarial"}
	s.Modules = append(s.Modules, soc.Module{ID: 0, Name: "adversarial-top", Level: 0})
	for i := 0; i < 12; i++ {
		s.Modules = append(s.Modules, soc.Module{
			ID: i + 1, Name: fmt.Sprintf("adv%02d", i), Level: 1,
			Inputs: 40, Outputs: 26,
			Patterns: 500 + i*61, IsMemory: true,
		})
	}
	return s
}

// AdversarialATE is the operating point Adversarial was tuned at.
func AdversarialATE() ate.ATE {
	return ate.ATE{Channels: 256, Depth: 16000, ClockHz: 5e6}
}

// PropSpec returns seed's point in the 200-seed property-test corpus
// (the PR 4 exact-vs-heuristic differential). The formulas are shared
// here so named regression tests — e.g. seed 166, the corpus's worst
// heuristic gap — pin the exact chip the sweep saw, not a re-derivation
// that could drift.
func PropSpec(seed int) GenSpec {
	return GenSpec{
		Name: fmt.Sprintf("prop%03d", seed), Seed: int64(1000 + seed),
		LogicCores:  2 + seed%5,
		MemoryCores: seed % 3,
		TargetArea:  int64(64+(seed%7)*32) * Ki,
		Spread:      0.5 + float64(seed%4)*0.5,
		MaxChainLen: 64 + (seed%3)*96,
	}
}

// PropATE returns seed's tester in the property-test corpus.
func PropATE(seed int) ate.ATE {
	return ate.ATE{
		Channels: 64 + (seed%4)*64,
		Depth:    int64(8+(seed%5)*14) * Ki,
		ClockHz:  5e6,
	}
}
