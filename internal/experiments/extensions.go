package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"multisite/internal/ate"
	"multisite/internal/baseline"
	"multisite/internal/benchdata"
	"multisite/internal/core"
	"multisite/internal/econ"
	"multisite/internal/engine"
	"multisite/internal/exact"
	"multisite/internal/finaltest"
	"multisite/internal/ieee1500"
	"multisite/internal/pareto"
	"multisite/internal/report"
	"multisite/internal/sched"
	"multisite/internal/sim"
	"multisite/internal/tam"
	"multisite/internal/tap"
	"multisite/internal/tdc"
	"multisite/internal/wrapper"
)

// ExtCostPerDevice closes the economic loop the paper motivates with:
// cost per tested device versus site count, on the fully loaded test-cell
// cost model (extension ext-cost).
func ExtCostPerDevice() *report.Table {
	pnx := benchdata.Shared("pnx8550")
	cfg := PNXConfig(BaseChannels, BaseDepth, false)
	res := optimizeJob("pnx8550", pnx, cfg)
	cell := econ.CellForATE(cfg.ATE, ate.DefaultPriceModel())

	t := &report.Table{
		Title:  "Extension: test cost per device vs multi-site (pnx8550)",
		Header: []string{"n", "Dth (dev/h)", "USD/device", "vs n=1"},
	}
	curve, _ := res.Design.ReEvaluate(cfg)
	base := cell.CostPerDevice(curve[0].Throughput)
	for n := 1; n <= res.Design.MaxSites; n++ {
		d := curve[n-1].Throughput
		c := cell.CostPerDevice(d)
		t.AddRow(n, d, fmt.Sprintf("%.4f", c), fmt.Sprintf("x%.2f", c/base))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("test cell: USD %.0f capital, %.0f%% utilization, USD %.0f/h operating",
			cell.ATECapitalUSD+cell.ProberCapitalUSD, 100*cell.Utilization, cell.OperatingUSDPerHour),
		"multi-site testing amortizes the fixed ATE over more devices — the paper's core motivation")
	return t
}

// ExtExactGap validates the Step 1 heuristic against the exact
// branch-and-bound optimum on d695 (extension ext-exact). The per-depth
// solves are independent and fan out across the engine pool — the
// branch-and-bound rows dominate this table's cost.
func ExtExactGap() *report.Table {
	t := &report.Table{
		Title:  "Extension: Step 1 heuristic vs exact optimum (d695)",
		Header: []string{"depth", "LB k", "exact k", "heuristic k", "gap", "partitions"},
	}
	s := benchdata.Shared("d695")
	depthsK := []int64{48, 56, 64, 72, 80, 96, 112, 128}
	for _, row := range rows(len(depthsK), func(i int) []interface{} {
		target := ate.ATE{Channels: 256, Depth: depthsK[i] * benchdata.Ki, ClockHz: BaseClock}
		sol, err := exact.Solve(context.Background(), s, target, exact.Options{})
		if err != nil {
			return []interface{}{DepthLabel(target.Depth), "-", "-", "-", "-", "-"}
		}
		arch, err := tam.DesignStep1(s, target)
		if err != nil {
			return []interface{}{DepthLabel(target.Depth), "-", sol.Channels(), "-", "-", sol.Visited}
		}
		lb, _ := baseline.LowerBoundChannels(s, target)
		return []interface{}{DepthLabel(target.Depth), lb, sol.Channels(), arch.Channels(),
			exact.Gap(arch.Wires(), sol), sol.Visited}
	}) {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "gap is in TAM wires; 0 means the greedy Step 1 is provably optimal")
	return t
}

// ExtControlOverhead quantifies the IEEE 1500 / TAP control cycles the
// paper implicitly neglects (extension ext-ctl).
func ExtControlOverhead() *report.Table {
	t := &report.Table{
		Title:  "Extension: wrapper-control overhead per test session",
		Header: []string{"SOC", "modules", "WIR chain bits", "control cycles", "test cycles", "overhead"},
	}
	cases := []struct {
		name  string
		n     int
		depth int64
	}{
		{"d695", 256, 64 * benchdata.Ki},
		{"p22810", 512, 512 * benchdata.Ki},
		{"p93791", 512, 2 * benchdata.Mi},
		{"pnx8550", 512, 7 * benchdata.Mi},
	}
	for _, row := range rows(len(cases), func(i int) []interface{} {
		c := cases[i]
		s := benchdata.Shared(c.name)
		arch, err := tam.DesignStep1(s, ate.ATE{Channels: c.n, Depth: c.depth, ClockHz: BaseClock})
		if err != nil {
			return []interface{}{c.name, "-", "-", "-", "-", "-"}
		}
		cc := ieee1500.ForArchitecture(arch)
		over := ieee1500.ScheduleOverhead(arch)
		return []interface{}{c.name, len(cc.Wrappers), cc.WIRChainBits(), over, arch.TestCycles(),
			fmt.Sprintf("%.4f%%", 100*ieee1500.OverheadFraction(arch))}
	}) {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("TAP session setup from reset costs %d TCK cycles (IR=8, 2 instructions, 64 config bits)",
			tap.SetupCost(8, 2, 64)),
		"finding: the paper's neglect of control overhead holds for core-count-scale SOCs (<1%)",
		"but a serial WIR chain costs ~4% on the 274-module PNX8550 — hierarchical WIR loading is warranted there")
	return t
}

// ExtSchedulingGain reports the abort-on-fail saving from reordering
// modules within channel groups by the t/(1−p) ratio rule (extension
// ext-sched, beyond the paper's unordered schedule).
func ExtSchedulingGain() *report.Table {
	t := &report.Table{
		Title:  "Extension: abort-on-fail gain from ratio-rule module ordering (single site)",
		Header: []string{"SOC", "chip yield", "E[cycles] unordered", "E[cycles] ordered", "saving", "E[cycles] sim", "sim gain"},
	}
	cases := []struct {
		name  string
		n     int
		depth int64
	}{
		{"d695", 256, 64 * benchdata.Ki},
		{"p22810", 512, 512 * benchdata.Ki},
		{"pnx8550", 512, 7 * benchdata.Mi},
	}
	for _, caseRows := range rows(len(cases), func(i int) [][]interface{} {
		c := cases[i]
		s := benchdata.Shared(c.name)
		arch, err := tam.DesignStep1(s, ate.ATE{Channels: c.n, Depth: c.depth, ClockHz: BaseClock})
		if err != nil {
			return nil
		}
		var out [][]interface{}
		for _, yield := range []float64{0.9, 0.7, 0.5} {
			y := sched.VolumeWeightedYield(arch, yield)
			before := sched.ExpectedCycles(arch, y)
			clone := arch.Clone()
			sched.Reorder(clone, y)
			after := sched.ExpectedCycles(clone, y)
			// Cross-validate the analytic abort-at-module-end bound with
			// the simulator, which aborts at the exact first-fail cycle.
			measured, err := sched.MeasuredExpectedCycles(arch, y, schedTrials, int64(100*yield))
			if err != nil {
				panic(fmt.Sprintf("experiments: measured cycles: %v", err))
			}
			// Paired trials: same seed, so identical fault draws on both
			// orders — the simulated counterpart of the saving column.
			mg, err := sched.MeasuredGain(arch, y, schedTrials, int64(100*yield))
			if err != nil {
				panic(fmt.Sprintf("experiments: measured gain: %v", err))
			}
			out = append(out, []interface{}{c.name, yield, before, after,
				fmt.Sprintf("%.1f%%", 100*(before-after)/before),
				fmt.Sprintf("%.0f", measured),
				fmt.Sprintf("%.2f%%", 100*mg)})
		}
		return out
	}) {
		for _, row := range caseRows {
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"expected cycles under abort-at-failing-module; ordering is free (group fills unchanged)",
		fmt.Sprintf("E[cycles] sim: %d Monte-Carlo dies per cell, abort at the simulated first-fail cycle —", schedTrials),
		"below the analytic bound because real aborts fire mid-module, not at module end",
		"finding: with defects spread volume-proportionally over many modules, ordering buys <0.2%",
		"— the abort saving concentrates where one fragile module dominates, not on balanced SOCs")
	return t
}

// schedTrials is the Monte-Carlo die count behind ext-sched's simulated
// columns: 15 full 64-lane blocks of the scenario-parallel engine. The
// lane engine (DESIGN.md §13) made thousands-scale trial counts cheaper
// than the old 150 scalar runs were.
const schedTrials = 960

// ExtTestFlow models the paper's full Section 3 flow: E-RPCT wafer sort
// followed by all-pins final test on the same class of tester, showing why
// the narrow wafer interface is the parallelism lever and how many final-
// test cells one wafer cell keeps busy (extension ext-flow).
func ExtTestFlow() *report.Table {
	pnx := benchdata.Shared("pnx8550")
	cfg := PNXConfig(BaseChannels, BaseDepth, false)
	res := optimizeJob("pnx8550", pnx, cfg)

	ft := finaltest.Config{
		ATE:              cfg.ATE,
		PackagePins:      480, // a PNX8550-class BGA
		HandlerSites:     4,
		IndexTime:        1.2,
		ContactTime:      0.05,
		IOTestTime:       0.4,
		InternalTestTime: res.Best.TestTimeSec,
	}
	t := &report.Table{
		Title:  "Extension: wafer sort vs final test flow (pnx8550, same 512-channel ATE class)",
		Header: []string{"stage", "contacted pins", "sites", "Dth (dev/h)"},
	}
	t.AddRow("wafer (E-RPCT)", res.Best.Channels+core.DefaultControlPins, res.Best.Sites, res.Best.Throughput)
	t.AddRow("final (IO only)", ft.PackagePins, ft.MaxSites(), ft.Throughput())
	ftRetest := ft
	ftRetest.RetestInternal = true
	t.AddRow("final (+internal re-test)", ft.PackagePins, ftRetest.MaxSites(), ftRetest.Throughput())

	flow := finaltest.Flow{
		Wafer: finaltest.FlowStage{Name: "wafer", Sites: res.Best.Sites, Throughput: res.Best.Throughput},
		Final: finaltest.FlowStage{Name: "final", Sites: ft.MaxSites(), Throughput: ft.Throughput()},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("flow bottleneck: %s stage; %d final-test cells keep one wafer cell busy",
			flow.Bottleneck().Name, flow.TestersForBalance()),
		"all-pins contact at final test caps the multi-site the E-RPCT interface unlocked at wafer")
	return t
}

// ExtFamilySweep runs Step 1 over the extended ITC'02 benchmark family at
// four relative memory depths, showing how the k-vs-depth staircase
// saturates on the bottleneck chips (one dominant core pins the minimum
// channel count regardless of depth) — the behaviour the paper's p34392
// column hints at (extension ext-family).
func ExtFamilySweep() *report.Table {
	t := &report.Table{
		Title:  "Extension: channel staircase across the extended ITC'02 family (N=512, broadcast)",
		Header: []string{"SOC", "modules", "area (Ki wire-cyc)", "k @A/8", "k @A/4", "k @A/2", "k @A"},
	}
	names := benchdata.FamilyNames()
	for _, row := range rows(len(names), func(i int) []interface{} {
		s := benchdata.Shared(names[i])
		d := wrapper.For(s)
		var area int64
		for _, mi := range s.TestableModules() {
			area += pareto.MinArea(d, mi, 256)
		}
		row := []interface{}{names[i], len(s.TestableModules()), area / benchdata.Ki}
		for _, div := range []int64{8, 4, 2, 1} {
			depth := area / div
			if depth < 1 {
				depth = 1
			}
			target := ate.ATE{Channels: 512, Depth: depth, ClockHz: BaseClock, Broadcast: true}
			arch, err := tam.DesignStep1(s, target)
			if err != nil {
				row = append(row, "-")
				continue
			}
			row = append(row, arch.Channels())
		}
		return row
	}) {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"depth set to 1/8..1/1 of each chip's own minimum test area A; '-' = infeasible",
		"balanced chips halve k as depth doubles; the bottleneck chips' dominant core",
		"cannot fit a shallow memory at any width (h953/a586710/t512505 at A/8) or costs extra channels (t512505 at A/4)")
	return t
}

// ExtTDC makes the paper's "orthogonal to TDC" remark quantitative:
// compress the d695 tests at growing EDT-style ratios and re-run the
// optimizer — compression shrinks k, which multiplies the multi-site,
// which multiplies the throughput (extension ext-tdc). Infeasible ratios
// degrade to "-" rows via the engine's per-job error capture.
func ExtTDC() *report.Table {
	t := &report.Table{
		Title:  "Extension: test data compression x multi-site (d695, N=256, D=48K)",
		Header: []string{"compression", "volume", "k", "nmax", "n_opt", "Dth (dev/h)", "vs 1x"},
	}
	s := benchdata.Shared("d695")
	cfg := PNXConfig(256, 48*benchdata.Ki, false)
	ratios := []float64{1, 2, 5, 10, 20}
	jobs := make([]engine.Job, len(ratios))
	for i, ratio := range ratios {
		chip := s
		if ratio > 1 {
			var err error
			chip, err = tdc.Apply(s, tdc.Scheme{Ratio: ratio})
			if err != nil {
				panic(err)
			}
		}
		jobs[i] = engine.Job{Name: fmt.Sprintf("d695/%gx", ratio), SOC: chip, Config: cfg}
	}
	// A fresh memo, not the session-wide DesignMemo: the compressed chips
	// are freshly-built *soc.SOC values, so their pointer-identity design
	// keys could never be re-hit across runs — retaining them in the
	// session memo would only grow memory.
	results, _ := engine.Run(context.Background(), jobs,
		engine.Options{Workers: Workers, Memo: engine.NewMemo()})
	var base float64
	for i, r := range results {
		ratio := ratios[i]
		if r.Err != nil {
			t.AddRow(fmt.Sprintf("%gx", ratio), "-", "-", "-", "-", "-", "-")
			continue
		}
		red := tdc.VolumeReduction(s, r.Job.SOC)
		if base == 0 {
			base = r.Best.Throughput
		}
		t.AddRow(fmt.Sprintf("%gx", ratio), fmt.Sprintf("%.1fx", red),
			r.Design.Step1.Channels(), r.Design.MaxSites, r.Best.Sites,
			r.Best.Throughput, fmt.Sprintf("x%.2f", r.Best.Throughput/base))
	}
	t.Notes = append(t.Notes,
		"TDC divides pattern counts (memories excluded); Step 1 converts the freed depth into fewer channels",
		"the two cost levers compose: the paper's orthogonality remark, quantified")
	return t
}

// ExtBitVal cross-validates the analytic fault-visibility model behind
// the abort-on-fail analysis against real bit movement, across the whole
// benchmark family (extension ext-bitval): per SOC, a seeded set of
// random faults is injected and the event-level walk (the model) and the
// word-packed bit-accurate engine (ground truth) must agree on the test
// length and the SOC first-fail cycle; the bit engine additionally counts
// every corrupted response bit that reaches the ATE. Until the simulator
// was word-packed and parallel (DESIGN.md §7), running this beyond small
// SOCs was infeasible — PNX8550-scale bit-level validation is now a
// routine table row.
func ExtBitVal() *report.Table {
	t := &report.Table{
		Title:  "Extension: bit-accurate cross-validation of the fault-cycle model",
		Header: []string{"SOC", "modules", "cycles", "=analytic", "faults", "first-fail event", "first-fail bits", "first-fail lanes", "agree", "bad bits"},
	}
	cases := []struct {
		name     string
		channels int
		depth    int64
	}{
		{"d695", 256, 64 * benchdata.Ki},
		{"p22810", 512, 512 * benchdata.Ki},
		{"p34392", 512, benchdata.Mi},
		{"p93791", 512, 2 * benchdata.Mi},
		{"pnx8550", 512, 7 * benchdata.Mi},
	}
	for _, row := range rows(len(cases), func(i int) []interface{} {
		c := cases[i]
		s := benchdata.Shared(c.name)
		arch, err := tam.DesignStep1(s, ate.ATE{Channels: c.channels, Depth: c.depth, ClockHz: BaseClock})
		if err != nil {
			return []interface{}{c.name, "-", "-", "-", "-", "-", "-", "-", "-", "-"}
		}
		faults := seededFaults(arch, 3, int64(c.channels)+c.depth)
		ev, err := sim.Run(arch, sim.Event, faults...)
		if err != nil {
			panic(fmt.Sprintf("experiments: event sim %s: %v", c.name, err))
		}
		bit, err := sim.Run(arch, sim.BitAccurate, faults...)
		if err != nil {
			panic(fmt.Sprintf("experiments: bit sim %s: %v", c.name, err))
		}
		// The scenario-parallel lane engine (DESIGN.md §13) on the same
		// fault set, as a one-scenario block.
		lanes, err := sim.RunScenarios(arch, []sim.Scenario{{Faults: faults}})
		if err != nil {
			panic(fmt.Sprintf("experiments: lane sim %s: %v", c.name, err))
		}
		badBits := 0
		for gi := range bit.Groups {
			for _, mr := range bit.Groups[gi].Modules {
				badBits += mr.Mismatches
			}
		}
		agree := ev.FirstFailCycle == bit.FirstFailCycle && ev.Cycles == bit.Cycles &&
			lanes[0].FirstFailCycle == ev.FirstFailCycle && lanes[0].Cycles == ev.Cycles
		return []interface{}{c.name, len(arch.SOC.TestableModules()), bit.Cycles,
			bit.Cycles == arch.TestCycles(), len(faults),
			ev.FirstFailCycle, bit.FirstFailCycle, lanes[0].FirstFailCycle, agree, badBits}
	}) {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"every scan-out bit of every module is materialized, shifted and compared (word-packed)",
		"agree = event-level, bit-level and scenario-lane simulators report identical first-fail cycles and test lengths")
	return t
}

// seededFaults places k deterministic pseudo-random faults on valid chain
// positions of the architecture's current wrapper designs.
func seededFaults(arch *tam.Architecture, k int, seed int64) []sim.Fault {
	rng := rand.New(rand.NewSource(seed))
	testable := arch.SOC.TestableModules()
	faults := make([]sim.Fault, 0, k)
	for len(faults) < k {
		mi := testable[rng.Intn(len(testable))]
		faults = append(faults, sim.RandomFault(arch, rng, mi))
	}
	return faults
}
