package core

import (
	"math"
	"testing"
)

// TestGainOverStep1CapBeyondMaxSites: a cap past the end of the curves is
// clamped — the gain equals the uncapped gain, with no panic.
func TestGainOverStep1CapBeyondMaxSites(t *testing.T) {
	res, err := Optimize(testSOC(), testConfig(64, 100_000, false))
	if err != nil {
		t.Fatal(err)
	}
	curve, step1Curve := scored(res)
	uncapped := CurveGain(step1Curve, curve, res.MaxSites)
	for _, capN := range []int{res.MaxSites + 1, res.MaxSites * 10, math.MaxInt32} {
		if g := CurveGain(step1Curve, curve, capN); g != uncapped {
			t.Errorf("CurveGain cap %d = %g, want %g", capN, g, uncapped)
		}
	}
}

// TestGainOverStep1ZeroThroughput: a degenerate base curve with no
// positive throughput reports zero gain, not NaN or Inf.
func TestGainOverStep1ZeroThroughput(t *testing.T) {
	base, curve := make([]SiteEval, 3), make([]SiteEval, 3)
	if g := CurveGain(base, curve, 3); g != 0 {
		t.Errorf("zero curves: gain = %g, want 0", g)
	}
	// Zero base but positive Step 1+2 curve still guards the division.
	curve[1].Throughput = 1000
	if g := CurveGain(base, curve, 3); g != 0 || math.IsNaN(g) || math.IsInf(g, 0) {
		t.Errorf("zero base curve: gain = %g, want 0", g)
	}
	// Empty curves (no feasible site count) behave the same way.
	if g := CurveGain(nil, nil, 5); g != 0 {
		t.Errorf("empty curves: gain = %g, want 0", g)
	}
}

// TestGainOverStep1NonPositiveCap: a cap below one site considers no
// points at all.
func TestGainOverStep1NonPositiveCap(t *testing.T) {
	res, err := Optimize(testSOC(), testConfig(64, 100_000, false))
	if err != nil {
		t.Fatal(err)
	}
	curve, step1Curve := scored(res)
	for _, capN := range []int{0, -1} {
		if g := CurveGain(step1Curve, curve, capN); g != 0 {
			t.Errorf("CurveGain cap %d = %g, want 0", capN, g)
		}
	}
}

// TestReEvaluateRetestVsPlainScoring: with Retest the objective switches
// from Dth to Du — the selected best must be the curve's Du maximum, and
// without Retest the Dth maximum.
func TestReEvaluateRetestVsPlainScoring(t *testing.T) {
	res, err := Optimize(testSOC(), testConfig(64, 100_000, false))
	if err != nil {
		t.Fatal(err)
	}
	plain := res.Config
	plain.ContactYield = 0.95 // low enough that Du and Dth argmaxes can split
	curve, best := res.ReEvaluate(plain)
	for _, e := range curve {
		if e.Throughput > best.Throughput+1e-12 {
			t.Errorf("plain scoring: n=%d Dth %g beats best %g", e.Sites, e.Throughput, best.Throughput)
		}
	}

	retest := plain
	retest.Retest = true
	curve, best = res.ReEvaluate(retest)
	for _, e := range curve {
		if e.UniqueThroughput > best.UniqueThroughput+1e-12 {
			t.Errorf("retest scoring: n=%d Du %g beats best %g", e.Sites, e.UniqueThroughput, best.UniqueThroughput)
		}
	}
	// Re-testing can only lose unique devices against the no-retest model.
	if best.UniqueThroughput > best.Throughput+1e-12 {
		t.Errorf("retest best: Du %g exceeds Dth %g", best.UniqueThroughput, best.Throughput)
	}
}

// TestReEvaluateIdempotentWithSameConfig: re-scoring under the original
// configuration reproduces Optimize's best, and the curve Rescore fills,
// bit for bit — the invariant the sweep engine's memo relies on.
func TestReEvaluateIdempotentWithSameConfig(t *testing.T) {
	for _, broadcast := range []bool{false, true} {
		res, err := Optimize(testSOC(), testConfig(64, 100_000, broadcast))
		if err != nil {
			t.Fatal(err)
		}
		curve, best := res.ReEvaluate(res.Config)
		if best != res.Best {
			t.Errorf("broadcast=%v: ReEvaluate best %+v != Optimize best %+v", broadcast, best, res.Best)
		}
		want, _ := scored(res)
		for i := range curve {
			if curve[i] != want[i] {
				t.Errorf("broadcast=%v n=%d: ReEvaluate %+v != Rescore %+v", broadcast, i+1, curve[i], want[i])
			}
		}
	}
}

// TestReEvaluateDifferentProbe: probe timing is a cost-model field and is
// honored without redesigning — slower probing strictly lowers throughput.
func TestReEvaluateDifferentProbe(t *testing.T) {
	res, err := Optimize(testSOC(), testConfig(64, 100_000, false))
	if err != nil {
		t.Fatal(err)
	}
	slow := res.Config
	slow.Probe.IndexTime *= 10
	curve, best := res.ReEvaluate(slow)
	if best.Throughput >= res.Best.Throughput {
		t.Errorf("10x index time: best Dth %g not below %g", best.Throughput, res.Best.Throughput)
	}
	fast, _ := scored(res)
	for i := range curve {
		if curve[i].Throughput >= fast[i].Throughput {
			t.Errorf("n=%d: slow-probe Dth %g not below %g", i+1, curve[i].Throughput, fast[i].Throughput)
		}
	}
}

// TestCurveGainMismatchedLengths: CurveGain tolerates curves of different
// lengths (e.g. comparing sweeps with different nmax).
func TestCurveGainMismatchedLengths(t *testing.T) {
	base := []SiteEval{{Sites: 1, Throughput: 100}}
	curve := []SiteEval{{Sites: 1, Throughput: 110}, {Sites: 2, Throughput: 150}}
	if g := CurveGain(base, curve, 10); math.Abs(g-0.5) > 1e-12 {
		t.Errorf("gain = %g, want 0.5", g)
	}
	if g := CurveGain(base, curve, 1); math.Abs(g-0.1) > 1e-12 {
		t.Errorf("capped gain = %g, want 0.1", g)
	}
	if g := CurveGain(nil, curve, 5); g != 0 {
		t.Errorf("nil base: gain = %g, want 0", g)
	}
}
