package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"multisite/internal/ate"
	"multisite/internal/soc"
	"multisite/internal/tam"
)

// scenarioRefResult runs one scenario through the scalar Event engine —
// the retained differential reference the lane-packed path must match
// byte for byte.
func scenarioRefResult(t *testing.T, arch *tam.Architecture, sc Scenario) ScenarioResult {
	t.Helper()
	r, err := Run(arch, Event, sc.Faults...)
	if err != nil {
		t.Fatal(err)
	}
	return ScenarioResult{Cycles: r.Cycles, FirstFailCycle: r.FirstFailCycle}
}

func assertScenariosMatchScalar(t *testing.T, arch *tam.Architecture, scenarios []Scenario, label string) {
	t.Helper()
	got, err := RunScenarios(arch, scenarios)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(scenarios) {
		t.Fatalf("%s: %d results for %d scenarios", label, len(got), len(scenarios))
	}
	for i, sc := range scenarios {
		want := scenarioRefResult(t, arch, sc)
		if got[i] != want {
			t.Fatalf("%s: scenario %d: lanes %+v, scalar %+v (faults %+v)",
				label, i, got[i], want, sc.Faults)
		}
	}
}

// syntheticSOC builds a small mixed SOC: scan modules of different chain
// shapes, a combinational module, and a zero-pattern (untestable) one.
func syntheticSOC(id int) *soc.SOC {
	return &soc.SOC{Name: fmt.Sprintf("lane-synth-%d", id), Modules: []soc.Module{
		{ID: 0, Inputs: 8},
		{ID: 1, Inputs: 5, Outputs: 7, ScanChains: soc.ChainsOfLengths(40, 17, 3), Patterns: 19},
		{ID: 2, Inputs: 3, Outputs: 2, Patterns: 7}, // combinational
		{ID: 3, Inputs: 9, Outputs: 1, ScanChains: soc.ChainsOfLengths(64, 64), Patterns: 31},
		{ID: 4, Inputs: 2, Outputs: 2, Patterns: 0}, // untestable
		{ID: 5, Inputs: 1, Outputs: 6, ScanChains: soc.ChainsOfLengths(5), Patterns: 3},
	}}
}

func TestRunScenariosEmptyInput(t *testing.T) {
	arch := d695Arch(t, 64)
	if _, err := RunScenarios(arch, nil); err == nil {
		t.Error("no scenarios accepted")
	}
}

func TestRunScenariosMatchesScalarBasic(t *testing.T) {
	arch := d695Arch(t, 64)
	mi := arch.Groups[0].Members[0]
	m := &arch.SOC.Modules[mi]
	d := arch.Designer.Fit(mi, arch.Groups[0].Width)
	scenarios := []Scenario{
		{}, // passing die
		{Faults: []Fault{{Module: mi, FirstPattern: 0}}},
		{Faults: []Fault{{Module: mi, FirstPattern: m.Patterns - 1}}},
		{Faults: []Fault{{Module: mi, Chain: d.Chains - 1, Bit: d.ScanOut[d.Chains-1] - 1, FirstPattern: m.Patterns / 2}}},
		{Faults: []Fault{{Module: mi, Chain: 999, Bit: 0, FirstPattern: 0}}},            // unobservable chain
		{Faults: []Fault{{Module: mi, Chain: 0, Bit: 1 << 20, FirstPattern: 0}}},        // unobservable bit
		{Faults: []Fault{{Module: mi, FirstPattern: m.Patterns + 5}}},                   // corrupts nothing applied
		{Faults: []Fault{{Module: mi, FirstPattern: 3}, {Module: mi, FirstPattern: 3}}}, // duplicate
	}
	assertScenariosMatchScalar(t, arch, scenarios, "basic")
}

// TestRunScenariosRandomizedDifferential is the lane/scalar acceptance
// differential: ≥200 mixed (SOC, yield, seed) Monte-Carlo configurations
// through both the lane-packed path and the retained scalar path, with
// identical per-trial first-fail cycles required — including tail blocks
// where trials % 64 ≠ 0.
func TestRunScenariosRandomizedDifferential(t *testing.T) {
	type archCase struct {
		arch  *tam.Architecture
		label string
	}
	var archs []archCase
	for _, depthK := range []int64{48, 64, 96} {
		archs = append(archs, archCase{d695Arch(t, depthK), fmt.Sprintf("d695/%dK", depthK)})
	}
	for id, channels := range map[int]int{0: 8, 1: 16, 2: 32} {
		s := syntheticSOC(id)
		a, err := tam.DesignStep1(s, ate.ATE{Channels: channels, Depth: 1 << 20, ClockHz: 1e6})
		if err != nil {
			t.Fatalf("synthetic SOC %d: %v", id, err)
		}
		archs = append(archs, archCase{a, fmt.Sprintf("synth-%d/%d", id, channels)})
	}

	configs := 0
	for ai, ac := range archs {
		testable := ac.arch.SOC.TestableModules()
		for _, yield := range []float64{0.5, 0.8, 0.95} {
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(seed*1000 + int64(ai)))
				// Odd trial counts exercise the tail lane block.
				trials := []int{1, 7, 64, 65, 130}[int(seed)%5]
				scenarios := make([]Scenario, trials)
				for tr := range scenarios {
					var faults []Fault
					for _, mi := range testable {
						if rng.Float64() < yield {
							continue
						}
						faults = append(faults, RandomFault(ac.arch, rng, mi))
					}
					// Occasionally inject an adversarial unobservable
					// or late-pattern fault on top of the drawn set.
					if rng.Intn(4) == 0 && len(testable) > 0 {
						mi := testable[rng.Intn(len(testable))]
						faults = append(faults, Fault{
							Module:       mi,
							Chain:        rng.Intn(8) - 2,
							Bit:          rng.Intn(1 << 14),
							FirstPattern: rng.Intn(2*ac.arch.SOC.Modules[mi].Patterns+2) - 1,
						})
					}
					scenarios[tr].Faults = faults
				}
				assertScenariosMatchScalar(t, ac.arch, scenarios,
					fmt.Sprintf("%s yield=%g seed=%d trials=%d", ac.label, yield, seed, trials))
				configs++
			}
		}
	}
	if configs < 200 {
		t.Fatalf("only %d configurations exercised, want ≥200", configs)
	}
}

// TestRunScenariosDeterministicAcrossWorkers pins worker-count
// independence (and gives the race detector multi-block traffic).
func TestRunScenariosDeterministicAcrossWorkers(t *testing.T) {
	arch := d695Arch(t, 64)
	testable := arch.SOC.TestableModules()
	rng := rand.New(rand.NewSource(99))
	scenarios := make([]Scenario, 200) // 4 blocks, one partial
	for i := range scenarios {
		var faults []Fault
		for _, mi := range testable {
			if rng.Float64() < 0.8 {
				continue
			}
			faults = append(faults, RandomFault(arch, rng, mi))
		}
		scenarios[i].Faults = faults
	}
	want, err := runScenarios(arch, scenarios, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 0} {
		got, err := runScenarios(arch, scenarios, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d scenario %d: %+v vs serial %+v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestRunScenariosCyclesMatchAnalytic(t *testing.T) {
	arch := d695Arch(t, 64)
	res, err := RunScenarios(arch, make([]Scenario, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Cycles != arch.TestCycles() {
			t.Errorf("scenario %d: cycles %d, analytic %d", i, r.Cycles, arch.TestCycles())
		}
		if r.FirstFailCycle != -1 {
			t.Errorf("scenario %d: clean die failed at %d", i, r.FirstFailCycle)
		}
	}
}
