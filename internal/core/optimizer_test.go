package core

import (
	"context"
	"math"
	"testing"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/soc"
	"multisite/internal/tam"
)

func testSOC() *soc.SOC {
	return &soc.SOC{Name: "opt", Modules: []soc.Module{
		{ID: 0, Name: "top"},
		{ID: 1, Inputs: 32, Outputs: 32, Patterns: 12},
		{ID: 2, Inputs: 20, Outputs: 10, Patterns: 73},
		{ID: 3, Inputs: 35, Outputs: 2, Patterns: 75, ScanChains: soc.ChainsOfLengths(32)},
		{ID: 4, Inputs: 36, Outputs: 39, Patterns: 105, ScanChains: soc.ChainsOfLengths(54, 53, 52, 52)},
		{ID: 5, Inputs: 62, Outputs: 152, Patterns: 234, ScanChains: soc.UniformChains(16, 40)},
	}}
}

func testConfig(channels int, depth int64, broadcast bool) Config {
	return Config{
		ATE:   ate.ATE{Channels: channels, Depth: depth, ClockHz: 5e6, Broadcast: broadcast},
		Probe: ate.ProbeStation{IndexTime: 0.5, ContactTime: 0.1},
	}
}

// scored fills both of r's curves under its own configuration.
func scored(r *Result) (curve, step1Curve []SiteEval) {
	curve = make([]SiteEval, r.MaxSites)
	step1Curve = make([]SiteEval, r.MaxSites)
	r.Rescore(r.Config, curve, step1Curve)
	return curve, step1Curve
}

func TestOptimizeBasics(t *testing.T) {
	res, err := Optimize(testSOC(), testConfig(64, 100_000, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxSites < 1 {
		t.Fatalf("MaxSites = %d", res.MaxSites)
	}
	if res.Best.Sites < 1 || res.Best.Sites > res.MaxSites {
		t.Fatalf("Best.Sites = %d, want 1..%d", res.Best.Sites, res.MaxSites)
	}
	if err := res.ArchAt(res.Best.Sites).Validate(); err != nil {
		t.Errorf("best architecture invalid: %v", err)
	}
	if err := res.Step1.Validate(); err != nil {
		t.Errorf("step1 architecture invalid: %v", err)
	}
}

func TestOptimizeBestIsCurveMaximum(t *testing.T) {
	res, err := Optimize(testSOC(), testConfig(64, 100_000, false))
	if err != nil {
		t.Fatal(err)
	}
	curve, _ := scored(res)
	for _, e := range curve {
		if e.Throughput > res.Best.Throughput+1e-9 {
			t.Errorf("n=%d throughput %g exceeds Best %g", e.Sites, e.Throughput, res.Best.Throughput)
		}
	}
}

func TestStep2NeverWorseThanStep1(t *testing.T) {
	for _, bc := range []bool{false, true} {
		res, err := Optimize(testSOC(), testConfig(64, 100_000, bc))
		if err != nil {
			t.Fatal(err)
		}
		curve, step1Curve := scored(res)
		for n := 1; n <= res.MaxSites; n++ {
			if curve[n-1].Throughput+1e-9 < step1Curve[n-1].Throughput {
				t.Errorf("broadcast=%v n=%d: Step1+2 %g below Step1-only %g",
					bc, n, curve[n-1].Throughput, step1Curve[n-1].Throughput)
			}
		}
	}
}

func TestStep2ChannelsWithinBudget(t *testing.T) {
	for _, bc := range []bool{false, true} {
		cfg := testConfig(64, 100_000, bc)
		res, err := Optimize(testSOC(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		curve, _ := scored(res)
		for n := 1; n <= res.MaxSites; n++ {
			e := curve[n-1]
			if maxK := 2 * cfg.ATE.MaxWiresPerSite(n); e.Channels > maxK {
				t.Errorf("broadcast=%v n=%d: k=%d exceeds budget %d", bc, n, e.Channels, maxK)
			}
			if cfg.ATE.MaxSites(e.Channels) < n {
				t.Errorf("broadcast=%v n=%d: k=%d does not allow n sites", bc, n, e.Channels)
			}
		}
	}
}

func TestBroadcastAllowsMoreSites(t *testing.T) {
	no, err := Optimize(testSOC(), testConfig(64, 100_000, false))
	if err != nil {
		t.Fatal(err)
	}
	yes, err := Optimize(testSOC(), testConfig(64, 100_000, true))
	if err != nil {
		t.Fatal(err)
	}
	if yes.MaxSites <= no.MaxSites {
		t.Errorf("broadcast MaxSites %d not above %d", yes.MaxSites, no.MaxSites)
	}
}

func TestFlattenedSOCDegenerateCase(t *testing.T) {
	// Problem 2: a flattened SOC is a single module; the same code path
	// must handle it (one channel group, wrapper = E-RPCT).
	flat := &soc.SOC{Name: "flat", Modules: []soc.Module{
		{ID: 1, Inputs: 50, Outputs: 40, Patterns: 200,
			ScanChains: soc.UniformChains(8, 100)},
	}}
	res, err := Optimize(flat, testConfig(64, 500_000, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Step1.Groups) != 1 {
		t.Errorf("flattened SOC got %d groups, want 1", len(res.Step1.Groups))
	}
	if res.Best.Sites < 1 {
		t.Errorf("Best.Sites = %d", res.Best.Sites)
	}
}

func TestNormalizedDefaults(t *testing.T) {
	cfg := Config{}.normalized()
	if cfg.ContactYield != 1 || cfg.Yield != 1 {
		t.Errorf("yields default to %g/%g, want 1/1", cfg.ContactYield, cfg.Yield)
	}
	cfg2 := Config{ControlPins: -1}.normalized()
	if cfg2.ControlPins != DefaultControlPins {
		t.Errorf("ControlPins = %d, want %d", cfg2.ControlPins, DefaultControlPins)
	}
}

func TestEvaluateThroughputFormula(t *testing.T) {
	cfg := testConfig(64, 100_000, false)
	res, err := Optimize(testSOC(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	curve, _ := scored(res)
	e := curve[0] // n = 1
	tm := float64(e.TestCycles) / 5e6
	want := 3600 / (0.5 + 0.1 + tm)
	if math.Abs(e.Throughput-want) > 1e-6 {
		t.Errorf("n=1 throughput = %g, want %g", e.Throughput, want)
	}
}

func TestReEvaluateMatchesOptimize(t *testing.T) {
	cfg := testConfig(64, 100_000, false)
	res, err := Optimize(testSOC(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	curve, best := res.ReEvaluate(cfg)
	if len(curve) != res.MaxSites {
		t.Fatalf("curve length %d", len(curve))
	}
	want, _ := scored(res)
	for i := range curve {
		if math.Abs(curve[i].Throughput-want[i].Throughput) > 1e-9 {
			t.Errorf("n=%d: re-eval %g != original %g",
				i+1, curve[i].Throughput, want[i].Throughput)
		}
	}
	if math.Abs(best.Throughput-res.Best.Throughput) > 1e-9 {
		t.Errorf("best mismatch: %g vs %g", best.Throughput, res.Best.Throughput)
	}
}

func TestReEvaluateWithRetestPrefersFewerPins(t *testing.T) {
	cfg := testConfig(64, 100_000, false)
	res, err := Optimize(testSOC(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.ContactYield = 0.99
	bad.Retest = true
	_, best := res.ReEvaluate(bad)
	if best.UniqueThroughput >= best.Throughput {
		t.Error("unique throughput should be below raw throughput at pc<1")
	}
}

func TestOptimizeInfeasible(t *testing.T) {
	if _, err := Optimize(testSOC(), testConfig(64, 10, false)); err == nil {
		t.Error("infeasible depth accepted")
	}
	// Channels too few for even one site.
	flatWide := &soc.SOC{Name: "wide", Modules: []soc.Module{
		{ID: 1, Inputs: 500, Outputs: 500, Patterns: 1000,
			ScanChains: soc.UniformChains(64, 500)},
	}}
	if _, err := Optimize(flatWide, testConfig(4, 2000, false)); err == nil {
		t.Error("oversubscribed SOC accepted")
	}
}

func TestGainOverStep1NonNegative(t *testing.T) {
	res, err := Optimize(testSOC(), testConfig(64, 100_000, true))
	if err != nil {
		t.Fatal(err)
	}
	curve, step1Curve := scored(res)
	for capN := 1; capN <= res.MaxSites; capN++ {
		if g := CurveGain(step1Curve, curve, capN); g < -1e-9 {
			t.Errorf("cap %d: negative gain %g", capN, g)
		}
	}
}

func TestAbortOnFailImprovesThroughput(t *testing.T) {
	cfg := testConfig(64, 100_000, false)
	cfg.Yield = 0.6
	res, err := Optimize(testSOC(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	abort := cfg
	abort.AbortOnFail = true
	_, bestAbort := res.ReEvaluate(abort)
	_, bestFull := res.ReEvaluate(cfg)
	if bestAbort.Throughput < bestFull.Throughput-1e-9 {
		t.Errorf("abort-on-fail lowered throughput: %g < %g",
			bestAbort.Throughput, bestFull.Throughput)
	}
}

// BenchmarkStep2Curve measures building the per-site-count architecture
// curve (nmax-site redistribution) for the PNX8550-class SOC, excluding
// the Step 1 design itself.
func BenchmarkStep2Curve(b *testing.B) {
	s := benchdata.Shared("pnx8550")
	target := ate.ATE{Channels: 512, Depth: 7 * benchdata.Mi, ClockHz: 5e6}
	step1, err := tam.DesignStep1(s, target)
	if err != nil {
		b.Fatal(err)
	}
	nmax := target.MaxSites(step1.Channels())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step2Arches(context.Background(), target, step1, nmax)
	}
}

// TestStep2Allocs pins the allocations of one Step 2 curve: the running
// architecture's clone (its struct, groups, group pointers, members and
// times), the per-site-count indices, and two blocks each, sized up front
// and then to their used length, for the snapshots' scores and their
// widths, however many snapshots the curve keeps. BenchmarkStep2Curve's
// pnx8550 design is widened for testers of 512 to 4,096 channels, whose
// curves keep different numbers of snapshots. BuildResult on the same
// Step 1 adds one block, the Result: its best is scored without a curve
// and no architecture is built.
func TestStep2Allocs(t *testing.T) {
	const blocks = 10
	s := benchdata.Shared("pnx8550")
	base := ate.ATE{Channels: 512, Depth: 7 * benchdata.Mi, ClockHz: 5e6}
	step1, err := tam.DesignStep1(s, base)
	if err != nil {
		t.Fatal(err)
	}
	snapshots := map[int]bool{}
	for _, channels := range []int{512, 1024, 2048, 4096} {
		target := base
		target.Channels = channels
		nmax := target.MaxSites(step1.Channels())
		step2, err := step2Arches(context.Background(), target, step1, nmax)
		if err != nil {
			t.Fatal(err)
		}
		snapshots[len(step2.scores)] = true
		allocs := testing.AllocsPerRun(20, func() {
			step2Arches(context.Background(), target, step1, nmax)
		})
		builds := testing.AllocsPerRun(20, func() {
			BuildResult(context.Background(), s, Config{ATE: target}, step1)
		})
		t.Logf("%d channels: %d sites, %d snapshots, %.0f allocations, %.0f to build the result",
			channels, nmax, len(step2.scores), allocs, builds)
		if allocs != blocks {
			t.Errorf("%d channels: %.0f allocations for %d snapshots; want %d", channels, allocs, len(step2.scores), blocks)
		}
		if builds != blocks+1 {
			t.Errorf("%d channels: BuildResult made %.0f allocations; want %d", channels, builds, blocks+1)
		}
	}
	if len(snapshots) < 2 {
		t.Fatalf("every tester keeps the same number of snapshots (%v); the bound is not shown to hold across counts", snapshots)
	}
}

// TestStep2ArchesMatchCloneRewiden pins the incremental Step 2 curve (one
// running widening sequence, its widths snapshot per site count) against
// the straightforward reference that clones step1 and re-widens from
// scratch for every n, on seeded generated SOCs: the architecture ArchAt
// builds from each snapshot, and the channels and test length the
// snapshot keeps for scoring. Every architecture on the curve is
// validated.
func TestStep2ArchesMatchCloneRewiden(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		s := benchdata.Generate(benchdata.GenSpec{
			Name:        "curve",
			Seed:        seed,
			LogicCores:  4 + int(seed%4)*3,
			MemoryCores: int(seed % 3),
			TargetArea:  (1 + seed%5) * benchdata.Mi / 2,
		})
		for _, bc := range []bool{false, true} {
			target := ate.ATE{Channels: 256, Depth: int64(48+32*seed) * 1024, ClockHz: 5e6, Broadcast: bc}
			step1, err := tam.DesignStep1(s, target)
			if err != nil {
				continue // infeasible seeds are fine
			}
			nmax := target.MaxSites(step1.Channels())
			if nmax < 1 {
				continue
			}
			step2, err := step2Arches(context.Background(), target, step1, nmax)
			if err != nil {
				t.Fatal(err)
			}
			res := &Result{Step1: step1, MaxSites: nmax, step2: step2}
			for n := nmax; n >= 1; n-- {
				naive := step1
				if budget := target.MaxWiresPerSite(n) - step1.Wires(); budget > 0 {
					c := step1.Clone()
					for i := 0; i < budget && c.WidenOnce(); i++ {
					}
					naive = c
				}
				arch := res.ArchAt(n)
				if got, want := arch.WriteString(), naive.WriteString(); got != want {
					t.Errorf("seed %d broadcast %v n %d: incremental curve differs\ngot:\n%s\nwant:\n%s",
						seed, bc, n, got, want)
				}
				if err := arch.Validate(); err != nil {
					t.Errorf("seed %d broadcast %v n %d: invalid curve architecture: %v", seed, bc, n, err)
				}
				if i := step2.at[n-1]; i >= 0 && step2.scores[i] != (step2Score{naive.Channels(), naive.TestCycles()}) {
					t.Errorf("seed %d broadcast %v n %d: snapshot scores %+v; architecture has %d channels, %d cycles",
						seed, bc, n, step2.scores[i], naive.Channels(), naive.TestCycles())
				}
			}
		}
	}
}
