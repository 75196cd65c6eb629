// Package sched implements abort-on-fail-aware test scheduling, an
// extension of the reproduced paper. The paper models abort-on-fail but
// keeps the module order within a channel group arbitrary (the order does
// not change the total fill). Under abort-on-fail at a single site,
// however, the order matters: the test stops at the first failing module,
// so fragile, short tests should run first. For sequential testing with
// per-module pass probabilities the expected time
//
//	E[T] = Σ_i t_i · Π_{j<i} p_j
//
// is minimized by the classic ratio rule: order modules by
// t_i / (1 − p_i) ascending (time over fail probability; adjacent-exchange
// argument) — a short test that likely fails buys the largest expected
// saving. This package scores and reorders architectures accordingly and
// quantifies the gain, which the experiment harness reports as extension
// ext-sched.
package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"multisite/internal/sim"
	"multisite/internal/tam"
	"multisite/internal/wrapper"
)

// YieldModel returns the pass probability of a module (by index into the
// SOC's Modules slice).
type YieldModel func(mi int) float64

// VolumeWeightedYield derates the pass probability with the module's test
// data volume: defect density makes big cores fail more often. The chip
// yield is distributed over modules proportionally to their test bits:
// p_m = chipYield^(bits_m / Σbits).
func VolumeWeightedYield(arch *tam.Architecture, chipYield float64) YieldModel {
	var total float64
	for _, mi := range arch.SOC.TestableModules() {
		total += float64(arch.SOC.Modules[mi].TestBits())
	}
	return func(mi int) float64 {
		if total == 0 {
			return chipYield
		}
		frac := float64(arch.SOC.Modules[mi].TestBits()) / total
		return math.Pow(chipYield, frac)
	}
}

// ExpectedGroupCycles returns the expected abort-on-fail test length of
// one group under the yield model, assuming a single site and abort at the
// end of the failing module's test (a conservative bound: real abort
// happens mid-module, as internal/sim shows).
func ExpectedGroupCycles(g *tam.Group, yield YieldModel) float64 {
	var expected, reach float64 = 0, 1
	for i := range g.Members {
		expected += reach * float64(g.Times[i])
		reach *= yield(g.Members[i])
	}
	return expected
}

// ExpectedCycles returns the expected abort-on-fail SOC test length: the
// maximum expected group length (groups run concurrently; the SOC test
// ends when the slowest group ends or every site has failed — we report
// the per-group expectation bound the paper's Eq. 4.4 also uses).
func ExpectedCycles(arch *tam.Architecture, yield YieldModel) float64 {
	var max float64
	for _, g := range arch.Groups {
		if e := ExpectedGroupCycles(g, yield); e > max {
			max = e
		}
	}
	return max
}

// Reorder sorts every group's members by the optimal ratio rule
// t/(1−p) ascending, in place. Modules that cannot fail (p = 1) go
// last, longest first (they can never trigger an abort). The group fill is
// unchanged — only the order.
func Reorder(arch *tam.Architecture, yield YieldModel) {
	for _, g := range arch.Groups {
		reorderGroup(g, yield)
	}
}

func reorderGroup(g *tam.Group, yield YieldModel) {
	type entry struct {
		member int
		time   int64
	}
	entries := make([]entry, len(g.Members))
	for i := range g.Members {
		entries[i] = entry{g.Members[i], g.Times[i]}
	}
	ratio := func(e entry) float64 {
		p := yield(e.member)
		if p >= 1 {
			return inf
		}
		return float64(e.time) / (1 - p)
	}
	sort.SliceStable(entries, func(a, b int) bool {
		ra, rb := ratio(entries[a]), ratio(entries[b])
		if ra != rb {
			return ra < rb
		}
		// Among never-failing modules, longest first is harmless;
		// keep deterministic.
		return entries[a].time > entries[b].time
	})
	for i, e := range entries {
		g.Members[i] = e.member
		g.Times[i] = e.time
	}
}

// MeasuredExpectedCycles cross-validates ExpectedCycles against the
// simulator: it Monte-Carlos the expected single-site abort-on-fail test
// length by drawing, per trial, an independent pass/fail outcome for every
// testable module from the yield model, placing a fault at a random chain
// position and pattern of each failing module, and charging the trial the
// simulated SOC first-fail cycle — the cycle the abort actually fires,
// mid-module — or the full test length when the die passes. Because the
// analytic bound aborts only at the end of the failing module's test, the
// measured mean is at most the analytic one; the gap is the paper's
// unmodeled mid-module saving.
//
// The fault draw consumes the PRNG in SOC module-index order, independent
// of the group order, so the same seed yields the same per-trial fault
// sets before and after a Reorder — MeasuredGain compares paired trials.
//
// Trials run through the scenario-parallel simulator in 64-lane blocks
// (sim.RunScenarios): the draws stay serial — the PRNG stream is part of
// the contract — and the per-trial first-fail cycles are byte-stable
// against the retained scalar reference (MeasuredExpectedCyclesScalar).
func MeasuredExpectedCycles(arch *tam.Architecture, yield YieldModel, trials int, seed int64) (float64, error) {
	scenarios, err := drawTrials(arch, yield, trials, seed)
	if err != nil {
		return 0, err
	}
	results, err := sim.RunScenarios(arch, scenarios)
	if err != nil {
		return 0, err
	}
	full := float64(arch.TestCycles())
	var sum float64
	for _, r := range results {
		if r.FirstFailCycle >= 0 {
			sum += float64(r.FirstFailCycle)
		} else {
			sum += full
		}
	}
	return sum / float64(trials), nil
}

// MeasuredExpectedCyclesScalar is the retained scalar reference for
// MeasuredExpectedCycles: identical draws, one Event-mode simulation per
// trial. The randomized lane/scalar differentials and the scalar-vs-lanes
// benchmarks compare against this implementation.
func MeasuredExpectedCyclesScalar(arch *tam.Architecture, yield YieldModel, trials int, seed int64) (float64, error) {
	scenarios, err := drawTrials(arch, yield, trials, seed)
	if err != nil {
		return 0, err
	}
	full := arch.TestCycles()
	var sum float64
	for _, sc := range scenarios {
		r, err := sim.Run(arch, sim.Event, sc.Faults...)
		if err != nil {
			return 0, err
		}
		if r.FirstFailCycle >= 0 {
			sum += float64(r.FirstFailCycle)
		} else {
			sum += float64(full)
		}
	}
	return sum / float64(trials), nil
}

// drawTrials draws the per-trial fault sets both MeasuredExpectedCycles
// implementations share: per trial, an independent pass/fail outcome for
// every testable module, and a FaultAt draw for each failing one — in SOC
// module-index order, one unbroken rng stream across trials.
func drawTrials(arch *tam.Architecture, yield YieldModel, trials int, seed int64) ([]sim.Scenario, error) {
	if trials < 1 {
		return nil, fmt.Errorf("sched: need at least one trial")
	}
	rng := rand.New(rand.NewSource(seed))
	// Hoist the loop-invariant per-module wrapper designs out of the
	// trial loop via a single-pass module→group index: the fault draw only
	// needs (patterns, chains, scan-out). A testable module outside every
	// group would silently consume a different number of rng draws than
	// the grouped path (its zero Design has no chains), desynchronizing
	// every later trial — refuse it loudly instead.
	testable := arch.SOC.TestableModules()
	groups := sim.GroupIndex(arch)
	designs := make([]wrapper.Design, len(testable))
	pass := make([]float64, len(testable))
	for i, mi := range testable {
		gi := groups[mi]
		if gi < 0 {
			return nil, fmt.Errorf("sched: testable module %d is in no channel group; the architecture is incomplete", mi)
		}
		designs[i] = arch.Designer.Fit(mi, arch.Groups[gi].Width)
		pass[i] = yield(mi) // hoisted: the model is a pure function of mi
	}

	scenarios := make([]sim.Scenario, trials)
	for trial := range scenarios {
		var faults []sim.Fault
		for i, mi := range testable {
			if rng.Float64() < pass[i] {
				continue // module passes
			}
			faults = append(faults, sim.FaultAt(rng, mi, arch.SOC.Modules[mi].Patterns, designs[i]))
		}
		scenarios[trial].Faults = faults
	}
	return scenarios, nil
}

// MeasuredGain returns the relative reduction, (before − after) / before,
// in the Monte-Carlo measured expected abort cycle that ratio-rule
// reordering achieves on a clone of the architecture (the input is not
// modified), over paired trials (same seed, so identical fault draws on
// both orders).
func MeasuredGain(arch *tam.Architecture, yield YieldModel, trials int, seed int64) (float64, error) {
	before, err := MeasuredExpectedCycles(arch, yield, trials, seed)
	if err != nil || before == 0 {
		return 0, err
	}
	c := arch.Clone()
	Reorder(c, yield)
	after, err := MeasuredExpectedCycles(c, yield, trials, seed)
	if err != nil {
		return 0, err
	}
	return (before - after) / before, nil
}

const inf = math.MaxFloat64
