// Benchmarks regenerating every table and figure of the paper's
// evaluation section (one benchmark per artifact, see DESIGN.md §3), the
// repository ablations, and micro-benchmarks of the core algorithms.
//
// Each artifact benchmark prints its table once, so
//
//	go test -bench=. -benchmem | tee bench_output.txt
//
// captures both the regeneration cost and the reproduced numbers.
package multisite_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/core"
	"multisite/internal/engine"
	"multisite/internal/exact"
	"multisite/internal/experiments"
	"multisite/internal/multisite"
	"multisite/internal/report"
	"multisite/internal/sched"
	"multisite/internal/sim"
	"multisite/internal/soc"
	"multisite/internal/tam"
	"multisite/internal/tap"
	"multisite/internal/wafersim"
	"multisite/internal/wrapper"
)

var printed sync.Map

func printOnce(name, text string) {
	if _, loaded := printed.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", name, text)
	}
}

func benchFigure(b *testing.B, name string, f func() *report.Figure) {
	b.Helper()
	var fig *report.Figure
	for i := 0; i < b.N; i++ {
		fig = f()
	}
	printOnce(name, fig.String())
}

func benchTable(b *testing.B, name string, f func() *report.Table) {
	b.Helper()
	var t *report.Table
	for i := 0; i < b.N; i++ {
		t = f()
	}
	printOnce(name, t.String())
}

// BenchmarkFig5 regenerates Figure 5: throughput vs multi-site for the
// PNX8550-class SOC, with/without stimuli broadcast, Step 1 vs Step 1+2.
func BenchmarkFig5(b *testing.B) { benchFigure(b, "fig5", experiments.Fig5) }

// BenchmarkFig6a regenerates Figure 6(a): throughput vs ATE channels.
func BenchmarkFig6a(b *testing.B) { benchFigure(b, "fig6a", experiments.Fig6a) }

// BenchmarkFig6b regenerates Figure 6(b): throughput vs memory depth.
func BenchmarkFig6b(b *testing.B) { benchFigure(b, "fig6b", experiments.Fig6b) }

// BenchmarkCostTrade regenerates the Section 7 memory-vs-channels money
// comparison.
func BenchmarkCostTrade(b *testing.B) { benchTable(b, "cost", experiments.CostTrade) }

// BenchmarkFig7a regenerates Figure 7(a): unique throughput vs depth under
// re-testing, per contact yield.
func BenchmarkFig7a(b *testing.B) { benchFigure(b, "fig7a", experiments.Fig7a) }

// BenchmarkFig7b regenerates Figure 7(b): abort-on-fail effective test
// time vs sites, per manufacturing yield.
func BenchmarkFig7b(b *testing.B) { benchFigure(b, "fig7b", experiments.Fig7b) }

// BenchmarkTable1 regenerates Table 1: lower bound, rectangle bin-packing
// baseline, and our Step 1, for 4 SOCs × 11 depths.
func BenchmarkTable1(b *testing.B) { benchTable(b, "table1", experiments.Table1) }

// BenchmarkAblationOptionRule compares Step 1's option-selection rules.
func BenchmarkAblationOptionRule(b *testing.B) {
	benchTable(b, "abl1-option-rule", experiments.AblationOptionRule)
}

// BenchmarkAblationWrapper compares COMBINE against plain LPT wrapper fit.
func BenchmarkAblationWrapper(b *testing.B) {
	benchTable(b, "abl2-wrapper", experiments.AblationWrapper)
}

// BenchmarkWaferPeriphery quantifies the periphery losses the paper
// ignores.
func BenchmarkWaferPeriphery(b *testing.B) {
	benchTable(b, "abl3-wafer-periphery", experiments.WaferPeriphery)
}

// ---- micro-benchmarks of the core algorithms ----

// BenchmarkWrapperFit measures one COMBINE wrapper design of the largest
// d695 core at width 16.
func BenchmarkWrapperFit(b *testing.B) {
	s := benchdata.Shared("d695")
	m := s.Module(5) // s38584
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wrapper.Fit(m, 16)
	}
}

// BenchmarkDesignerBuild measures the wrapper time-table build a
// never-seen chip pays once before Step 1: a fresh Designer, then every
// testable module's table.
func BenchmarkDesignerBuild(b *testing.B) {
	for _, name := range []string{"d695", "pnx8550"} {
		b.Run(name, func(b *testing.B) {
			s := benchdata.Shared(name)
			modules := s.TestableModules()
			b.ReportAllocs()
			for b.Loop() {
				d := wrapper.NewDesigner(s)
				for _, mi := range modules {
					d.TimeTable(mi)
				}
			}
		})
	}
}

// BenchmarkDesignerTimeTable measures the Designer time-query hot path as
// the Step 1/Step 2 inner loops use it — one TimeTable hoist per module,
// then indexed width queries — over every testable PNX8550 module at
// widths 1..64 from warm per-module tables.
func BenchmarkDesignerTimeTable(b *testing.B) {
	s := benchdata.Shared("pnx8550")
	d := wrapper.For(s)
	modules := s.TestableModules()
	for _, mi := range modules {
		d.Time(mi, 1) // warm the per-module tables
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		for _, mi := range modules {
			tt := d.TimeTable(mi)
			top := len(tt)
			if top > 64 {
				top = 64
			}
			for w := 1; w <= top; w++ {
				sum += tt[w-1]
			}
		}
	}
	benchSink = sum
}

var benchSink int64

// BenchmarkStep1D695 measures the full Step 1 design of d695 at 64K.
func BenchmarkStep1D695(b *testing.B) {
	s := benchdata.Shared("d695")
	target := ate.ATE{Channels: 256, Depth: 64 * benchdata.Ki, ClockHz: 5e6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tam.DesignStep1(s, target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizePNX8550 measures the full two-step optimization of the
// 275-module PNX8550-class SOC. One warm-up run keeps the process-global
// wrapper-table build out of the measurement (otherwise the framework's
// N=1 probe reports the one-time build instead of steady state).
func BenchmarkOptimizePNX8550(b *testing.B) {
	s := benchdata.Shared("pnx8550")
	cfg := experiments.PNXConfig(512, 7*benchdata.Mi, false)
	if _, err := core.Optimize(s, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimEventD695 measures the event-level simulation of a full
// d695 test.
func BenchmarkSimEventD695(b *testing.B) {
	s := benchdata.Shared("d695")
	arch, err := tam.DesignStep1(s, ate.ATE{Channels: 256, Depth: 64 * benchdata.Ki, ClockHz: 5e6})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(arch, sim.Event); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimBitD695 measures the bit-accurate simulation of a full d695
// test (every scan shift executed).
func BenchmarkSimBitD695(b *testing.B) {
	s := benchdata.Shared("d695")
	arch, err := tam.DesignStep1(s, ate.ATE{Channels: 256, Depth: 64 * benchdata.Ki, ClockHz: 5e6})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(arch, sim.BitAccurate); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimBitPNX8550 measures the word-packed bit-accurate simulation
// of the full 275-module PNX8550-class test — every scan-out bit of every
// module materialized and compared. Infeasible before the packed engine
// (the per-cycle boolean reference needs ~hours); the packed, parallel
// engine runs it in fractions of a second, which is what lets the
// ext-bitval experiment and the family differential tests treat
// PNX8550-scale bit-level validation as routine.
func BenchmarkSimBitPNX8550(b *testing.B) {
	s := benchdata.Shared("pnx8550")
	arch, err := tam.DesignStep1(s, ate.ATE{Channels: 512, Depth: 7 * benchdata.Mi, ClockHz: 5e6})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(arch, sim.BitAccurate); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarlo measures 1000 simulated touchdowns of an 8-site
// test with re-testing.
func BenchmarkMonteCarlo(b *testing.B) {
	p := multisite.Params{
		Sites: 8, Pins: 74, IndexTime: 0.65, ContactTime: 0.1,
		TestTime: 1.468, ContactYield: 0.999, Yield: 0.9,
		AbortOnFail: true, Retest: true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wafersim.Run(wafersim.Config{Params: p, Touchdowns: 1000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasuredExpectedCyclesD695 measures the Monte-Carlo expected
// abort-cycle estimator on d695 at 256 trials: the retained scalar
// reference (one Event simulation per trial) against the 64-lane
// scenario-parallel engine (sim.RunScenarios). Both run the identical
// serial fault draw and return bit-identical means — the spread is pure
// simulation cost.
func BenchmarkMeasuredExpectedCyclesD695(b *testing.B) {
	s := benchdata.Shared("d695")
	arch, err := tam.DesignStep1(s, ate.ATE{Channels: 256, Depth: 64 * benchdata.Ki, ClockHz: 5e6})
	if err != nil {
		b.Fatal(err)
	}
	yield := sched.VolumeWeightedYield(arch, 0.85)
	const trials = 256
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sched.MeasuredExpectedCyclesScalar(arch, yield, trials, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lanes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sched.MeasuredExpectedCycles(arch, yield, trials, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExpectedAbortSavings measures the Monte-Carlo multi-site
// abort-savings estimator (8 sites × 128 touchdowns on d695), scalar
// touchdown loop vs the lane-packed engine with every contacted die as
// one scenario lane.
func BenchmarkExpectedAbortSavings(b *testing.B) {
	s := benchdata.Shared("d695")
	arch, err := tam.DesignStep1(s, ate.ATE{Channels: 256, Depth: 64 * benchdata.Ki, ClockHz: 5e6})
	if err != nil {
		b.Fatal(err)
	}
	const (
		sites      = 8
		pins       = 32
		touchdowns = 128
	)
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.ExpectedAbortSavingsScalar(arch, sites, pins, 0.995, 0.8, touchdowns, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lanes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.ExpectedAbortSavings(arch, sites, pins, 0.995, 0.8, touchdowns, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- sweep-engine benchmarks ----

// familySweepJobs is the fleet-scale acceptance grid: every benchmark SOC
// of the paper's Table 1 plus PNX8550, at its paper channel count, over
// representative depths, with a contact-yield × re-test cost-model sweep.
// 80 scenarios (5 chips × 4 depths × 4 contact yields) over 20 Step 1
// design keys: the engine's memo re-scores each design four times.
func familySweepJobs() []engine.Job {
	probe := ate.DefaultProbeStation()
	pcs := []float64{1, 0.999, 0.998, 0.99}
	grids := []engine.Grid{
		{
			SOCs:     []*soc.SOC{benchdata.Shared("d695")},
			Channels: []int{256},
			Depths:   []int64{48 * benchdata.Ki, 64 * benchdata.Ki, 96 * benchdata.Ki, 128 * benchdata.Ki},
		},
		{
			SOCs:     []*soc.SOC{benchdata.Shared("p22810")},
			Channels: []int{512},
			Depths:   []int64{384 * benchdata.Ki, 512 * benchdata.Ki, 768 * benchdata.Ki, benchdata.Mi},
		},
		{
			SOCs:     []*soc.SOC{benchdata.Shared("p34392")},
			Channels: []int{512},
			Depths:   []int64{768 * benchdata.Ki, benchdata.Mi, 1536 * benchdata.Ki, 2 * benchdata.Mi},
		},
		{
			SOCs:     []*soc.SOC{benchdata.Shared("p93791")},
			Channels: []int{512},
			Depths:   []int64{benchdata.Mi, 2 * benchdata.Mi, 3 * benchdata.Mi, 3584 * benchdata.Ki},
		},
		{
			SOCs:     []*soc.SOC{benchdata.Shared("pnx8550")},
			Channels: []int{512},
			Depths:   []int64{5 * benchdata.Mi, 6 * benchdata.Mi, 7 * benchdata.Mi, 8 * benchdata.Mi},
		},
	}
	var jobs []engine.Job
	for i := range grids {
		grids[i].ClockHz = 5e6
		grids[i].Probe = probe
		grids[i].ContactYields = pcs
		grids[i].Retest = []bool{true}
		jobs = append(jobs, grids[i].Jobs()...)
	}
	return jobs
}

// warmFamilyTables builds every wrapper design table the family sweep
// touches, once per process, so the sweep benchmarks compare steady-state
// design cost rather than who pays the shared one-time table builds.
var warmFamilyTables = sync.OnceFunc(func() {
	for _, j := range familySweepJobs() {
		if _, err := core.Optimize(j.SOC, j.Config); err != nil {
			panic(err)
		}
	}
})

// BenchmarkSweepSerialNaive is the pre-engine baseline: the family grid
// as a plain serial loop of full core.Optimize calls, one per scenario —
// no worker pool, no design memoization.
func BenchmarkSweepSerialNaive(b *testing.B) {
	jobs := familySweepJobs()
	warmFamilyTables()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			if _, err := core.Optimize(j.SOC, j.Config); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepEngine runs the same family grid on the sweep engine at
// growing worker counts. Its speedup over BenchmarkSweepSerialNaive comes
// from the memo, which re-scores each Step 1 design across the cost-model
// variants (4x fewer designs on this grid, independent of CPU count).
// Extra workers do not help in grid order: neighbouring jobs share a
// design key, so a second worker waits on the design the first is
// computing (medians of 16 runs on a 2-core host, each timing both:
// ~13.4 ms at 2 workers vs ~13.3 ms at 1; ROADMAP item 2). Results are
// byte-identical across all variants (TestEngineFamilySweepDeterministic).
func BenchmarkSweepEngine(b *testing.B) {
	jobs := familySweepJobs()
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			warmFamilyTables()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Fresh memo each iteration: benchmark the full sweep,
				// not a cache replay.
				results, err := engine.Run(context.Background(), jobs,
					engine.Options{Workers: workers, Memo: engine.NewMemo()})
				if err != nil {
					b.Fatal(err)
				}
				for r := range results {
					if results[r].Err != nil {
						b.Fatal(results[r].Err)
					}
				}
			}
		})
	}
}

// TestEngineFamilySweepDeterministic pins the acceptance contract of the
// sweep engine on the full family grid: results are byte-identical across
// worker counts.
func TestEngineFamilySweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("family sweep is seconds-scale; skipped in -short")
	}
	jobs := familySweepJobs()
	transcript := func(results []engine.JobResult) string {
		var b []byte
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("job %s: %v", r.Job.Name, r.Err)
			}
			b = fmt.Appendf(b, "%s nmax=%d best=%+v\n", r.Job.Name, r.Design.MaxSites, r.Best)
			curve := make([]core.SiteEval, r.Design.MaxSites)
			step1Curve := make([]core.SiteEval, r.Design.MaxSites)
			r.Design.Rescore(r.Job.Config, curve, step1Curve)
			for i := range curve {
				b = fmt.Appendf(b, " %+v %+v\n", curve[i], step1Curve[i])
			}
		}
		return string(b)
	}
	var want string
	for _, workers := range []int{1, 4} {
		results, err := engine.Run(context.Background(), jobs,
			engine.Options{Workers: workers, Memo: engine.NewMemo()})
		if err != nil {
			t.Fatal(err)
		}
		got := transcript(results)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("workers=%d sweep differs from workers=1", workers)
		}
	}
}

// ---- extension benchmarks ----

// BenchmarkExtExactGap validates Step 1 against the exact optimum.
func BenchmarkExtExactGap(b *testing.B) {
	benchTable(b, "ext-exact", experiments.ExtExactGap)
}

// BenchmarkExtControlOverhead quantifies IEEE 1500 / TAP control cycles.
func BenchmarkExtControlOverhead(b *testing.B) {
	benchTable(b, "ext-ctl", experiments.ExtControlOverhead)
}

// BenchmarkExtSchedulingGain measures the abort-on-fail ordering gain.
func BenchmarkExtSchedulingGain(b *testing.B) {
	benchTable(b, "ext-sched", experiments.ExtSchedulingGain)
}

// BenchmarkExtCostPerDevice closes the cost-per-device economic loop.
func BenchmarkExtCostPerDevice(b *testing.B) {
	benchTable(b, "ext-cost", experiments.ExtCostPerDevice)
}

// BenchmarkExtTestFlow models the two-stage wafer + final test flow.
func BenchmarkExtTestFlow(b *testing.B) {
	benchTable(b, "ext-flow", experiments.ExtTestFlow)
}

// BenchmarkExtFamilySweep sweeps the extended benchmark family.
func BenchmarkExtFamilySweep(b *testing.B) {
	benchTable(b, "ext-family", experiments.ExtFamilySweep)
}

// BenchmarkExtTDC quantifies the TDC x multi-site composition.
func BenchmarkExtTDC(b *testing.B) {
	benchTable(b, "ext-tdc", experiments.ExtTDC)
}

// BenchmarkExactD695 measures the branch-and-bound solve itself.
func BenchmarkExactD695(b *testing.B) {
	s := benchdata.Shared("d695")
	target := ate.ATE{Channels: 256, Depth: 64 * benchdata.Ki, ClockHz: 5e6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exact.Solve(context.Background(), s, target, exact.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTAPInstructionLoad measures one TAP instruction load.
func BenchmarkTAPInstructionLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := tap.New(8)
		c.Reset()
		c.LoadInstruction(0x5A)
	}
}
