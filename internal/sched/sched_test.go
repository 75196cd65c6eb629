package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/soc"
	"multisite/internal/tam"
)

func arch(t *testing.T) *tam.Architecture {
	t.Helper()
	a, err := tam.DesignStep1(benchdata.Shared("d695"),
		ate.ATE{Channels: 256, Depth: 64 * 1024, ClockHz: 5e6})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestExpectedGroupCyclesFormula(t *testing.T) {
	g := &tam.Group{
		Members: []int{0, 1, 2},
		Times:   []int64{100, 200, 300},
	}
	yields := map[int]float64{0: 0.5, 1: 0.8, 2: 1.0}
	y := func(mi int) float64 { return yields[mi] }
	// E = 100 + 0.5·200 + 0.5·0.8·300 = 100 + 100 + 120 = 320.
	if got := ExpectedGroupCycles(g, y); math.Abs(got-320) > 1e-9 {
		t.Errorf("E = %g, want 320", got)
	}
}

func TestPerfectYieldNoAbortBenefit(t *testing.T) {
	a := arch(t)
	e := ExpectedCycles(a, func(int) float64 { return 1 })
	if math.Abs(e-float64(a.TestCycles())) > 1e-6 {
		t.Errorf("E at p=1 is %g, want full %d", e, a.TestCycles())
	}
}

func TestReorderPutsFragileShortFirst(t *testing.T) {
	g := &tam.Group{
		Members: []int{10, 11},
		Times:   []int64{1000, 10},
	}
	// Module 11 is short and fragile: ratio 10·0.5/0.5 = 10 beats
	// 1000·0.99/0.01 = 99000.
	yields := map[int]float64{10: 0.99, 11: 0.5}
	y := func(mi int) float64 { return yields[mi] }
	reorderGroup(g, y)
	if g.Members[0] != 11 {
		t.Errorf("order = %v, want fragile short module first", g.Members)
	}
	// E after: 10 + 0.5·1000 = 510; before: 1000 + 0.99·10 = 1009.9.
	if e := ExpectedGroupCycles(g, y); math.Abs(e-510) > 1e-9 {
		t.Errorf("E = %g, want 510", e)
	}
}

func TestReorderPreservesFillAndMembership(t *testing.T) {
	a := arch(t)
	before := a.Clone()
	Reorder(a, VolumeWeightedYield(a, 0.7))
	if err := a.Validate(); err != nil {
		t.Fatalf("reordered architecture invalid: %v", err)
	}
	if a.TestCycles() != before.TestCycles() {
		t.Errorf("reorder changed test length %d → %d", before.TestCycles(), a.TestCycles())
	}
	for gi := range a.Groups {
		if a.Groups[gi].Fill != before.Groups[gi].Fill {
			t.Errorf("group %d fill changed", gi)
		}
	}
}

func TestRatioRuleOptimalOnSmallGroups(t *testing.T) {
	// Exhaustive check: the ratio rule matches the best of all
	// permutations for random 5-module groups.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		g := &tam.Group{}
		yields := map[int]float64{}
		for i := 0; i < n; i++ {
			g.Members = append(g.Members, i)
			g.Times = append(g.Times, int64(1+rng.Intn(1000)))
			yields[i] = 0.05 + 0.9*rng.Float64()
		}
		y := func(mi int) float64 { return yields[mi] }

		bestPerm := math.MaxFloat64
		for _, order := range permutations(n) {
			members := make([]int, n)
			times := make([]int64, n)
			for k, idx := range order {
				members[k] = g.Members[idx]
				times[k] = g.Times[idx]
			}
			tmp := &tam.Group{Members: members, Times: times}
			if e := ExpectedGroupCycles(tmp, y); e < bestPerm {
				bestPerm = e
			}
		}
		reorderGroup(g, y)
		got := ExpectedGroupCycles(g, y)
		if got > bestPerm*(1+1e-9) {
			t.Fatalf("trial %d: ratio rule %g worse than optimal %g (times=%v yields=%v)",
				trial, got, bestPerm, g.Times, yields)
		}
	}
}

// permutations returns all index permutations of 0..n-1.
func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for pos := 0; pos <= len(sub); pos++ {
			p := make([]int, 0, n)
			p = append(p, sub[:pos]...)
			p = append(p, n-1)
			p = append(p, sub[pos:]...)
			out = append(out, p)
		}
	}
	return out
}

func TestGainPositiveAtLowYield(t *testing.T) {
	a := arch(t)
	y := VolumeWeightedYield(a, 0.6)
	before := ExpectedCycles(a, y)
	Reorder(a, y)
	after := ExpectedCycles(a, y)
	if after > before {
		t.Errorf("reordering hurt: %g → %g expected cycles", before, after)
	}
	// d695's groups mix big and small cores, so some gain must exist.
	if after == before {
		t.Log("no gain on d695 at 60% yield (groups already ordered)")
	}
}

func TestVolumeWeightedYieldComposes(t *testing.T) {
	a := arch(t)
	y := VolumeWeightedYield(a, 0.7)
	prod := 1.0
	for _, mi := range a.SOC.TestableModules() {
		p := y(mi)
		if p <= 0 || p > 1 {
			t.Fatalf("module %d: p = %g", mi, p)
		}
		prod *= p
	}
	// Per-module yields must multiply back to the chip yield.
	if math.Abs(prod-0.7) > 1e-9 {
		t.Errorf("Π p_m = %g, want 0.7", prod)
	}
}

func TestPropertyReorderNeverIncreasesExpectation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		g := &tam.Group{}
		yields := map[int]float64{}
		for i := 0; i < n; i++ {
			g.Members = append(g.Members, i)
			g.Times = append(g.Times, int64(1+rng.Intn(500)))
			yields[i] = rng.Float64()
		}
		y := func(mi int) float64 { return yields[mi] }
		before := ExpectedGroupCycles(g, y)
		reorderGroup(g, y)
		return ExpectedGroupCycles(g, y) <= before*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReorderEmptySOC(t *testing.T) {
	s := &soc.SOC{Name: "one", Modules: []soc.Module{
		{ID: 1, Inputs: 4, Outputs: 4, Patterns: 5},
	}}
	a, err := tam.DesignStep1(s, ate.ATE{Channels: 8, Depth: 1000, ClockHz: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	Reorder(a, func(int) float64 { return 0.5 })
	if err := a.Validate(); err != nil {
		t.Errorf("single-module reorder broke architecture: %v", err)
	}
}

func TestMeasuredExpectedCyclesBoundedByAnalytic(t *testing.T) {
	// The analytic bound aborts at the END of the failing module's test;
	// the simulator aborts mid-module, so the measured mean must come in
	// at or below the bound (within Monte-Carlo noise) and at or below
	// the full test length.
	a := arch(t)
	y := func(int) float64 { return 0.7 }
	analytic := ExpectedCycles(a, y)
	measured, err := MeasuredExpectedCycles(a, y, 400, 11)
	if err != nil {
		t.Fatal(err)
	}
	full := float64(a.TestCycles())
	if measured > full {
		t.Errorf("measured %g above full length %g", measured, full)
	}
	if measured > analytic*1.05 {
		t.Errorf("measured %g not below analytic bound %g", measured, analytic)
	}
	if measured <= 0 {
		t.Errorf("measured %g not positive", measured)
	}
}

func TestMeasuredExpectedCyclesDeterministic(t *testing.T) {
	a := arch(t)
	y := VolumeWeightedYield(a, 0.6)
	m1, err := MeasuredExpectedCycles(a, y, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MeasuredExpectedCycles(a, y, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("same seed, different means: %g vs %g", m1, m2)
	}
}

func TestMeasuredExpectedCyclesPerfectYield(t *testing.T) {
	a := arch(t)
	m, err := MeasuredExpectedCycles(a, func(int) float64 { return 1 }, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m != float64(a.TestCycles()) {
		t.Errorf("perfect yield measured %g, want full %d", m, a.TestCycles())
	}
	if _, err := MeasuredExpectedCycles(a, func(int) float64 { return 1 }, 0, 5); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestMeasuredGainPairedTrials(t *testing.T) {
	// A strongly skewed yield (one fragile module) is where ordering
	// helps; the measured gain must not be materially negative — paired
	// trials see identical fault draws on both orders.
	a := arch(t)
	fragile := a.SOC.TestableModules()[len(a.SOC.TestableModules())-1]
	y := func(mi int) float64 {
		if mi == fragile {
			return 0.3
		}
		return 0.999
	}
	g, err := MeasuredGain(a, y, 200, 17)
	if err != nil {
		t.Fatal(err)
	}
	if g < -0.01 {
		t.Errorf("measured gain %g is materially negative", g)
	}
}

// TestMeasuredExpectedCyclesLanesMatchesScalar holds the 64-lane
// Monte-Carlo path to the retained scalar reference across mixed yield,
// seed, and trial-count configurations — including odd trial counts
// whose tail block leaves lanes idle.
func TestMeasuredExpectedCyclesLanesMatchesScalar(t *testing.T) {
	a := arch(t)
	for _, yield := range []float64{0.6, 0.85, 0.99} {
		for _, trials := range []int{1, 63, 64, 65, 150} {
			for seed := int64(0); seed < 3; seed++ {
				lanes, err := MeasuredExpectedCycles(a, VolumeWeightedYield(a, yield), trials, seed)
				if err != nil {
					t.Fatal(err)
				}
				scalar, err := MeasuredExpectedCyclesScalar(a, VolumeWeightedYield(a, yield), trials, seed)
				if err != nil {
					t.Fatal(err)
				}
				if lanes != scalar {
					t.Errorf("yield=%g trials=%d seed=%d: lanes %v != scalar %v",
						yield, trials, seed, lanes, scalar)
				}
			}
		}
	}
}

// TestMeasuredExpectedCyclesUnplacedModule: a testable module outside
// every channel group would silently desynchronize the PRNG stream
// (its zero-value design has no chains to draw on); the measured paths
// must refuse the incomplete architecture loudly instead.
func TestMeasuredExpectedCyclesUnplacedModule(t *testing.T) {
	a := arch(t).Clone()
	// Evict one testable module from its group.
	victim := a.SOC.TestableModules()[0]
	for _, g := range a.Groups {
		for i, mi := range g.Members {
			if mi == victim {
				g.Members = append(g.Members[:i], g.Members[i+1:]...)
				g.Times = append(g.Times[:i], g.Times[i+1:]...)
				break
			}
		}
	}
	if _, err := MeasuredExpectedCycles(a, func(int) float64 { return 0.9 }, 10, 1); err == nil {
		t.Error("lane path accepted an architecture with an unplaced testable module")
	}
	if _, err := MeasuredExpectedCyclesScalar(a, func(int) float64 { return 0.9 }, 10, 1); err == nil {
		t.Error("scalar path accepted an architecture with an unplaced testable module")
	}
}
