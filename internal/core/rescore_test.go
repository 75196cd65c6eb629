package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/multisite"
	"multisite/internal/tam"
)

// sameEval reports whether two evaluations are bit-identical.
func sameEval(a, b SiteEval) bool {
	bits := math.Float64bits
	return a.Sites == b.Sites && a.Channels == b.Channels && a.TestCycles == b.TestCycles &&
		bits(a.TestTimeSec) == bits(b.TestTimeSec) &&
		bits(a.Throughput) == bits(b.Throughput) &&
		bits(a.UniqueThroughput) == bits(b.UniqueThroughput)
}

// checkCurve fails unless got matches want entry for entry, bit for bit.
func checkCurve(t *testing.T, name, which string, got, want []SiteEval) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s has %d entries, reference %d", name, which, len(got), len(want))
	}
	for i := range want {
		if !sameEval(got[i], want[i]) {
			t.Fatalf("%s: %s n=%d: %+v, reference %+v", name, which, i+1, got[i], want[i])
		}
	}
}

// rescoreYields are the contact yields and yields the cost models draw
// from: 0 (which normalizes to 1), one at which pc^x and 1 − pm round to
// 0 and 1, and ordinary ones.
var rescoreYields = [...]float64{0, 1e-300, 0.5, 0.95, 0.999, 1}

// seededCostModel draws a cost model for base's design: yields, abort,
// re-test, control pins −1..40 (−1 is the default) and probe times; one
// in eight runs the clock at 1e-320 Hz, which makes every test time +Inf
// (and, with a yield of 1e-300, throughputs NaN).
func seededCostModel(rng *rand.Rand, base Config) Config {
	cfg := base
	cfg.ContactYield = rescoreYields[rng.Intn(len(rescoreYields))]
	cfg.Yield = rescoreYields[rng.Intn(len(rescoreYields))]
	cfg.AbortOnFail = rng.Intn(2) == 1
	cfg.Retest = rng.Intn(2) == 1
	cfg.ControlPins = rng.Intn(42) - 1
	cfg.Probe = ate.ProbeStation{IndexTime: rng.Float64(), ContactTime: rng.Float64() / 2}
	if rng.Intn(8) == 0 {
		cfg.ATE.ClockHz = 1e-320
	}
	return cfg
}

// checkArch fails unless got is want: the same text (widths and
// members), the same member times and fill in every group, and valid.
func checkArch(t *testing.T, name string, got, want *tam.Architecture) {
	t.Helper()
	if g, w := got.WriteString(), want.WriteString(); g != w {
		t.Fatalf("%s: architecture\n%s\nreference\n%s", name, g, w)
	}
	for gi, g := range got.Groups {
		w := want.Groups[gi]
		if !slices.Equal(g.Times, w.Times) || g.Fill != w.Fill {
			t.Fatalf("%s: group %d times %v fill %d, reference %v fill %d", name, gi, g.Times, g.Fill, w.Times, w.Fill)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: invalid architecture: %v", name, err)
	}
}

// checkBuild pins a design's Step 2 architectures to the clone-per-budget
// curve, and its best, its best architecture and the curves Rescore
// fills under its own configuration to buildResult's loop. It returns
// the reference curve for checkRescore.
func checkBuild(t *testing.T, name string, res *Result) []*tam.Architecture {
	t.Helper()
	arches := referenceStep2Arches(res.Config.ATE, res.Step1, res.MaxSites)
	for n := 1; n <= res.MaxSites; n++ {
		got := res.ArchAt(n)
		if (got == res.Step1) != (arches[n-1] == res.Step1) {
			t.Fatalf("%s: ArchAt(%d) is Step1: %v, reference: %v", name, n, got == res.Step1, arches[n-1] == res.Step1)
		}
		checkArch(t, fmt.Sprintf("%s: ArchAt(%d)", name, n), got, arches[n-1])
	}
	curve, step1Curve, best, bestArch := res.referenceBuild(arches)
	gotCurve, gotStep1 := scored(res)
	checkCurve(t, name, "curve", gotCurve, curve)
	checkCurve(t, name, "step1 curve", gotStep1, step1Curve)
	if !sameEval(res.Best, best) {
		t.Fatalf("%s: Best %+v, reference %+v", name, res.Best, best)
	}
	checkArch(t, name+": ArchAt(Best.Sites)", res.ArchAt(res.Best.Sites), bestArch)
	return arches
}

// checkRescore pins Rescore under cfg to the reference loops over arches,
// the reference Step 2 curve, once with nil curves and once with curves
// to fill, and ReEvaluate and EvaluateAt, which score through the same
// code.
func checkRescore(t *testing.T, name string, res *Result, arches []*tam.Architecture, cfg Config) {
	t.Helper()
	name = fmt.Sprintf("%s %+v", name, cfg)
	wantCurve, wantBest := res.referenceReEvaluate(arches, cfg)
	wantStep1 := res.referenceStep1Curve(cfg)
	wantGain := CurveGain(wantStep1, wantCurve, res.MaxSites)
	wantFinite := referenceFinite(wantCurve, wantStep1, wantGain)
	check := func(how string, best SiteEval, gain float64, finite bool) {
		t.Helper()
		if !sameEval(best, wantBest) {
			t.Fatalf("%s: %s best %+v, reference %+v", name, how, best, wantBest)
		}
		if math.Float64bits(gain) != math.Float64bits(wantGain) {
			t.Fatalf("%s: %s gain %v, reference %v", name, how, gain, wantGain)
		}
		if finite != wantFinite {
			t.Fatalf("%s: %s finite %v, reference %v", name, how, finite, wantFinite)
		}
	}

	best, gain, finite := res.Rescore(cfg, nil, nil)
	check("nil curves", best, gain, finite)

	curve := make([]SiteEval, res.MaxSites)
	step1Curve := make([]SiteEval, res.MaxSites)
	best, gain, finite = res.Rescore(cfg, curve, step1Curve)
	check("filled curves", best, gain, finite)
	checkCurve(t, name, "curve", curve, wantCurve)
	checkCurve(t, name, "step1 curve", step1Curve, wantStep1)

	curve, best = res.ReEvaluate(cfg)
	checkCurve(t, name, "ReEvaluate curve", curve, wantCurve)
	if !sameEval(best, wantBest) {
		t.Fatalf("%s: ReEvaluate best %+v, reference %+v", name, best, wantBest)
	}
	for n := 1; n <= res.MaxSites; n++ {
		if got := cfg.EvaluateAt(res.Step1, n); !sameEval(got, wantStep1[n-1]) {
			t.Fatalf("%s: EvaluateAt(Step1, %d) %+v, reference %+v", name, n, got, wantStep1[n-1])
		}
	}
}

// cornerCostModels are fixed cost models for base's design at the edges
// of the argument that lets a curve-less Rescore skip evaluations
// (archModel.bounded):
//   - zero index and contact times, where the touchdown is all test time;
//   - abort-on-fail with a yield of 1e-300, whose computed P'm is 0;
//   - NaN, negative and above-1 contact yields and yields, and a
//     negative index time, which must turn the skipping off;
//   - where site counts 2 and 1 use two Step 2 snapshots, a contact
//     yield whose pc^x is about 2⁻⁵³ at n = 2's pins, and more at Step
//     1's, but below 2⁻⁵⁴ at n = 1's, so that P'c = 1 − (1 − pc^x)^n computes to 0
//     at n = 1 although pc^x does not. The index time is tuned so that n
//     = 1 is the best, by a hair; a ceiling that took P'c ≥ pc^x there
//     would skip it. The second result reports whether the design has
//     this case.
func cornerCostModels(res *Result, base Config) ([]Config, bool) {
	var cfgs []Config
	add := func(f func(*Config)) {
		cfg := base
		f(&cfg)
		cfgs = append(cfgs, cfg)
	}
	for _, retest := range []bool{false, true} {
		add(func(c *Config) { c.Probe, c.ContactYield, c.Retest = ate.ProbeStation{}, 0.999, retest })
		add(func(c *Config) { c.AbortOnFail, c.Yield, c.Retest = true, 1e-300, retest })
		add(func(c *Config) { c.Probe, c.AbortOnFail, c.Yield, c.Retest = ate.ProbeStation{}, true, 1e-300, retest })
	}
	for _, bad := range []float64{math.NaN(), -0.5, 1.5} {
		add(func(c *Config) { c.ContactYield = bad })
		add(func(c *Config) { c.AbortOnFail, c.Yield = true, bad })
	}
	add(func(c *Config) { c.Probe.IndexTime = -1 })

	cfg := base.normalized()
	if res.MaxSites < 2 || res.step2.at[1] < 0 || res.step2.at[0] == res.step2.at[1] {
		return cfgs, false
	}
	wide, narrow := res.step2.scores[res.step2.at[0]], res.step2.scores[res.step2.at[1]]
	pins1, pins2 := wide.channels+cfg.ControlPins, narrow.channels+cfg.ControlPins
	pc := math.Pow(2, -53/float64(pins2))
	if multisite.PContactAny(pc, pins1, 1) != 0 || multisite.PContactAny(pc, pins2, 2) == 0 {
		return cfgs, false
	}
	tm := cfg.ATE.SecondsFor(narrow.cycles)
	add(func(c *Config) {
		c.ContactYield = pc
		c.Probe = ate.ProbeStation{IndexTime: multisite.PContactAny(pc, pins2, 2) * tm * (1 - 0x1p-10)}
	})
	return cfgs, true
}

// TestRescoreMatchesReference pins the one-pass kernel bit for bit to the
// per-site-count loops it replaced, and the Step 2 snapshots to the
// clone-per-budget curve they replaced (reference_test.go): every built-in
// chip at 128, 256 and 512 channels, five depths, broadcast off and on,
// each design re-scored under its own cost model, eight seeded ones and
// the fixed corners of cornerCostModels, the degenerate corners included
// — yields whose pc^x underflows, zero and perfect yields, and a clock at
// which every test time is +Inf and throughputs turn 0 or NaN.
func TestRescoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	designs, pairs, tuned := 0, 0, 0
	for _, chip := range benchdata.Names() {
		s := benchdata.Shared(chip)
		designed := 0
		for _, channels := range []int{128, 256, 512} {
			for _, depth := range []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20} {
				for _, broadcast := range []bool{false, true} {
					base := Config{
						ATE:   ate.ATE{Channels: channels, Depth: depth, ClockHz: 5e6, Broadcast: broadcast},
						Probe: ate.DefaultProbeStation(),
					}
					res, err := Optimize(s, base)
					if err != nil {
						continue // the chip does not fit this ATE
					}
					designed++
					name := fmt.Sprintf("%s/%dch/%d/broadcast=%v", chip, channels, depth, broadcast)
					arches := checkBuild(t, name, res)
					checkRescore(t, name, res, arches, res.Config)
					for range 8 {
						checkRescore(t, name, res, arches, seededCostModel(rng, base))
					}
					corners, ok := cornerCostModels(res, base)
					for _, cfg := range corners {
						checkRescore(t, name, res, arches, cfg)
					}
					if ok {
						tuned++
					}
					pairs += 9 + len(corners)
				}
			}
		}
		if designed == 0 {
			t.Errorf("%s: no ATE of the table hosts it; the chip is never checked", chip)
		}
		designs += designed
	}
	if tuned == 0 {
		t.Error("no design has two Step 2 snapshots at n = 1 and 2 whose pc^x straddle 2⁻⁵⁴")
	}
	t.Logf("%d designs, %d (design, cost model) pairs bit-identical, %d with a tuned 2⁻⁵³ contact yield", designs, pairs, tuned)
}

// FuzzRescoreMatchesReference is TestRescoreMatchesReference over fuzzed
// generated chips, ATEs and cost models. The yields, control pins and
// probe times are taken as they come, out-of-range values included: the
// kernel must match the reference on any input, not only on validated
// ones.
func FuzzRescoreMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2), uint16(256), uint16(256), false, 0.999, 0.95, false, true, int8(-1), 0.5, 0.1, false)
	f.Add(int64(7), uint8(12), uint8(3), uint16(512), uint16(128), true, 0.5, 1.0, true, true, int8(0), 0.0, 0.0, false)
	f.Add(int64(42), uint8(4), uint8(0), uint16(128), uint16(64), false, 1e-300, 1e-300, true, false, int8(40), 0.2, 0.3, true)
	f.Add(int64(3), uint8(10), uint8(1), uint16(384), uint16(512), true, 0.95, 0.5, false, false, int8(10), 1.0, 0.05, true)
	// cornerCostModels' corners: zero index and contact times; a contact
	// yield whose pc^x is about 2⁻⁵³ at n = 2 but computes P'c = 0 at
	// n = 1, with the index time it tunes for this chip; abort-on-fail at
	// a yield of 1e-300; NaN, negative and above-1 yields.
	f.Add(int64(1), uint8(8), uint8(2), uint16(256), uint16(256), false, 0.999, 0.95, false, true, int8(-1), 0.0, 0.0, false)
	f.Add(int64(1), uint8(8), uint8(2), uint16(128), uint16(256), false, 0.5632608093041209, 1.0, false, false, int8(0), 2.679191373963774e-18, 0.0, false)
	f.Add(int64(1), uint8(8), uint8(2), uint16(256), uint16(256), false, 0.999, 1e-300, true, true, int8(-1), 0.0, 0.0, false)
	f.Add(int64(1), uint8(8), uint8(2), uint16(256), uint16(256), false, 0.999, 1e-300, true, false, int8(-1), 0.65, 0.1, false)
	for _, bad := range []float64{math.NaN(), -0.5, 1.5} {
		f.Add(int64(1), uint8(8), uint8(2), uint16(256), uint16(256), false, bad, 0.95, false, true, int8(-1), 0.65, 0.1, false)
		f.Add(int64(1), uint8(8), uint8(2), uint16(256), uint16(256), false, 0.999, bad, true, false, int8(-1), 0.65, 0.1, false)
	}
	f.Fuzz(func(t *testing.T, seed int64, logic, memory uint8, channels, depthK uint16, broadcast bool,
		contactYield, yield float64, abort, retest bool, controlPins int8, indexTime, contactTime float64, slowClock bool) {
		spec := benchdata.GenSpec{
			Name:        "fuzz",
			Seed:        seed,
			LogicCores:  max(1, int(logic%15)),
			MemoryCores: int(memory % 4),
			TargetArea:  benchdata.Mi,
		}
		base := Config{
			ATE: ate.ATE{
				Channels:  max(2, int(channels%513)),
				Depth:     max(1, int64(depthK%513)) * 1024,
				ClockHz:   5e6,
				Broadcast: broadcast,
			},
			Probe: ate.DefaultProbeStation(),
		}
		res, err := Optimize(benchdata.Generate(spec), base)
		if err != nil {
			return // infeasible: nothing to score
		}
		name := fmt.Sprintf("%+v %+v", spec, base.ATE)
		arches := checkBuild(t, name, res)
		cfg := base
		cfg.ContactYield, cfg.Yield = contactYield, yield
		cfg.AbortOnFail, cfg.Retest = abort, retest
		cfg.ControlPins = int(controlPins)
		cfg.Probe = ate.ProbeStation{IndexTime: indexTime, ContactTime: contactTime}
		if slowClock {
			cfg.ATE.ClockHz = 1e-320
		}
		checkRescore(t, name, res, arches, cfg)
	})
}

// BenchmarkRescoreRow times the re-score behind one served sweep row:
// Rescore with nil curves, as every sweep and compare row calls it, over
// sweep-stream's four chips at 256 channels (three depths each, within
// the workload's ranges) and its contact yields below 1, re-test off and
// on. Each iteration re-scores the next (design, cost model) pair.
func BenchmarkRescoreRow(b *testing.B) {
	chips := []struct {
		name   string
		depths []int64
	}{
		{"d695", []int64{64 << 10, 256 << 10, 1 << 20}},
		{"p22810", []int64{1 << 20, 4 << 20, 12 << 20}},
		{"p34392", []int64{2 << 20, 6 << 20, 12 << 20}},
		{"p93791", []int64{2 << 20, 6 << 20, 12 << 20}},
	}
	var designs []*Result
	for _, c := range chips {
		for _, depth := range c.depths {
			res, err := Optimize(benchdata.Shared(c.name), Config{
				ATE:   ate.ATE{Channels: 256, Depth: depth, ClockHz: 5e6},
				Probe: ate.DefaultProbeStation(),
			})
			if err != nil {
				b.Fatalf("%s at %d: %v", c.name, depth, err)
			}
			designs = append(designs, res)
		}
	}
	var cfgs []Config
	for _, pc := range []float64{0.9995, 0.999, 0.998, 0.995, 0.99, 0.98, 0.95} {
		for _, retest := range []bool{false, true} {
			cfg := designs[0].Config
			cfg.ContactYield, cfg.Retest = pc, retest
			cfgs = append(cfgs, cfg)
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		designs[i%len(designs)].Rescore(cfgs[i/len(designs)%len(cfgs)], nil, nil)
		i++
	}
}
