package multisite

import (
	"math"
	"testing"
	"testing/quick"
)

func baseParams() Params {
	return Params{
		Sites: 4, Pins: 70,
		IndexTime: 0.65, ContactTime: 0.1, TestTime: 1.5,
		ContactYield: 0.9995, Yield: 0.9,
	}
}

func TestValidate(t *testing.T) {
	if err := baseParams().Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Sites = 0 },
		func(p *Params) { p.Pins = 0 },
		func(p *Params) { p.IndexTime = -1 },
		func(p *Params) { p.ContactYield = 1.5 },
		func(p *Params) { p.Yield = -0.1 },
	}
	for i, mutate := range bad {
		p := baseParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestDeviceContactYield(t *testing.T) {
	if got := DeviceContactYield(1, 100); got != 1 {
		t.Errorf("pc=1: %g", got)
	}
	got := DeviceContactYield(0.999, 70)
	want := math.Pow(0.999, 70)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("pc^x = %g, want %g", got, want)
	}
}

func TestPContactAnySingleSite(t *testing.T) {
	// n = 1 degenerates to pc^x.
	pc, pins := 0.999, 50
	got := PContactAny(pc, pins, 1)
	want := DeviceContactYield(pc, pins)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("P'c(n=1) = %g, want %g", got, want)
	}
}

func TestPManufAnyKnown(t *testing.T) {
	// pm = 0.5, n = 2: 1 - 0.25 = 0.75.
	if got := PManufAny(0.5, 2); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("P'm = %g, want 0.75", got)
	}
	if got := PManufAny(1, 5); got != 1 {
		t.Errorf("P'm(pm=1) = %g", got)
	}
	if got := PManufAny(0, 5); got != 0 {
		t.Errorf("P'm(pm=0) = %g", got)
	}
}

func TestEffectiveTestTimePerfectYield(t *testing.T) {
	p := baseParams()
	p.ContactYield, p.Yield = 1, 1
	// t = tc + tm exactly.
	if got := p.EffectiveTestTime(); math.Abs(got-(0.1+1.5)) > 1e-12 {
		t.Errorf("t = %g, want 1.6", got)
	}
	p.AbortOnFail = true
	if got := p.EffectiveTestTime(); math.Abs(got-1.6) > 1e-12 {
		t.Errorf("abort-on-fail with pm=1: t = %g, want 1.6", got)
	}
}

func TestAbortOnFailReducesTime(t *testing.T) {
	p := baseParams()
	p.Yield = 0.5
	p.Sites = 1
	full := p.EffectiveTestTime()
	p.AbortOnFail = true
	aborted := p.EffectiveTestTime()
	if aborted >= full {
		t.Errorf("abort-on-fail did not reduce time: %g >= %g", aborted, full)
	}
	// Expected: tc + pc^x·pm·tm at n=1.
	want := 0.1 + DeviceContactYield(p.ContactYield, p.Pins)*0.5*1.5
	if math.Abs(aborted-want) > 1e-12 {
		t.Errorf("aborted time = %g, want %g", aborted, want)
	}
}

func TestAbortOnFailWashesOutWithSites(t *testing.T) {
	// The paper's Fig. 7(b) claim: the abort-on-fail saving vanishes as
	// n grows, because some site almost surely keeps passing.
	p := baseParams()
	p.Yield = 0.7
	p.AbortOnFail = true
	p.ContactYield = 1
	prev := -1.0
	for n := 1; n <= 10; n++ {
		p.Sites = n
		eff := p.EffectiveTestTime()
		if eff < prev {
			t.Errorf("n=%d: effective time %g decreased below %g", n, eff, prev)
		}
		prev = eff
	}
	full := p.ContactTime + p.TestTime
	if math.Abs(prev-full)/full > 0.001 {
		t.Errorf("at n=10 effective time %g still differs from full %g", prev, full)
	}
}

func TestThroughputKnownValue(t *testing.T) {
	p := Params{Sites: 8, Pins: 70, IndexTime: 0.65, ContactTime: 0.1,
		TestTime: 1.468, ContactYield: 1, Yield: 1}
	// Dth = 3600·8 / (0.65 + 0.1 + 1.468).
	want := 3600 * 8 / (0.65 + 0.1 + 1.468)
	if got := p.Throughput(); math.Abs(got-want) > 1e-9 {
		t.Errorf("Dth = %g, want %g", got, want)
	}
}

func TestUniqueThroughput(t *testing.T) {
	p := baseParams()
	p.Retest = false
	if p.UniqueThroughput() != p.Throughput() {
		t.Error("without re-test, Du must equal Dth")
	}
	p.Retest = true
	f := 1 - DeviceContactYield(p.ContactYield, p.Pins)
	want := p.Throughput() / (1 + f)
	if got := p.UniqueThroughput(); math.Abs(got-want) > 1e-9 {
		t.Errorf("Du = %g, want %g", got, want)
	}
	if p.UniqueThroughput() >= p.Throughput() {
		t.Error("re-testing must cost unique throughput")
	}
}

// TestRetestRatePerfectContact: with every terminal contacting, no
// device is re-tested, so re-testing costs no unique throughput.
func TestRetestRatePerfectContact(t *testing.T) {
	p := baseParams()
	p.ContactYield = 1
	p.Retest = true
	if dth, du := p.Throughputs(); du != dth {
		t.Errorf("Du = %g, want Dth = %g at a zero re-test rate", du, dth)
	}
}

// TestThroughputsMatchReference pins the one-pass model bit for bit to
// the two-pass forms in reference_test.go over a grid that covers the
// degenerate corners: zero and subnormal-scale contact yields, zero and
// perfect yields, zero times (an infinite throughput), and pin counts
// where pc^x underflows.
func TestThroughputsMatchReference(t *testing.T) {
	bits := math.Float64bits
	n := 0
	for _, pc := range []float64{0, 1e-300, 0.5, 0.95, 0.999, 0.9995, 1} {
		for _, pm := range []float64{0, 0.5, 1} {
			for _, pins := range []int{1, 12, 74, 522, 2000} {
				for _, abort := range []bool{false, true} {
					for _, retest := range []bool{false, true} {
						for _, ti := range []float64{0, 0.1} {
							for _, tc := range []float64{0, 0.1} {
								for _, tm := range []float64{0, 1e-3, 2.5} {
									for sites := 1; sites <= 64; sites++ {
										p := Params{Sites: sites, Pins: pins, IndexTime: ti, ContactTime: tc,
											TestTime: tm, ContactYield: pc, Yield: pm, AbortOnFail: abort, Retest: retest}
										wantD, wantU := p.referenceThroughput(), p.referenceUniqueThroughput()
										dth, du := p.Throughputs()
										if bits(dth) != bits(wantD) || bits(du) != bits(wantU) {
											t.Fatalf("%+v: Throughputs = (%v, %v), reference (%v, %v)", p, dth, du, wantD, wantU)
										}
										if dth, du := p.ThroughputsFrom(DeviceContactYield(pc, pins)); bits(dth) != bits(wantD) || bits(du) != bits(wantU) {
											t.Fatalf("%+v: ThroughputsFrom = (%v, %v), reference (%v, %v)", p, dth, du, wantD, wantU)
										}
										if got := p.Throughput(); bits(got) != bits(wantD) {
											t.Fatalf("%+v: Throughput = %v, reference %v", p, got, wantD)
										}
										if got := p.UniqueThroughput(); bits(got) != bits(wantU) {
											t.Fatalf("%+v: UniqueThroughput = %v, reference %v", p, got, wantU)
										}
										if got, want := p.EffectiveTestTime(), p.referenceEffectiveTestTime(); bits(got) != bits(want) {
											t.Fatalf("%+v: EffectiveTestTime = %v, reference %v", p, got, want)
										}
										n++
									}
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d parameter sets bit-identical", n)
}

func TestTouchdownTime(t *testing.T) {
	p := baseParams()
	if got, want := p.TouchdownTime(), p.IndexTime+p.EffectiveTestTime(); got != want {
		t.Errorf("TouchdownTime = %g, want %g", got, want)
	}
}

func TestPropertyPContactMonotoneInSites(t *testing.T) {
	f := func(pcRaw uint16, pinsRaw uint8) bool {
		pc := 0.9 + float64(pcRaw%1000)/10000 // 0.9 … 0.9999
		pins := 1 + int(pinsRaw)%200
		prev := 0.0
		for n := 1; n <= 12; n++ {
			cur := PContactAny(pc, pins, n)
			if cur < prev-1e-12 || cur > 1 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyPContactDecreasesWithPins(t *testing.T) {
	f := func(pcRaw uint16) bool {
		pc := 0.9 + float64(pcRaw%1000)/10000
		prev := 2.0
		for pins := 10; pins <= 500; pins += 70 {
			cur := PContactAny(pc, pins, 4)
			if cur > prev+1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyThroughputScalesWithSites(t *testing.T) {
	// With perfect yields, Dth is exactly proportional to n for fixed
	// per-touchdown time.
	f := func(tmRaw uint16) bool {
		tm := 0.1 + float64(tmRaw%3000)/1000
		p := Params{Sites: 1, Pins: 50, IndexTime: 0.65, ContactTime: 0.1,
			TestTime: tm, ContactYield: 1, Yield: 1}
		d1 := p.Throughput()
		p.Sites = 7
		d7 := p.Throughput()
		return math.Abs(d7/d1-7) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyAbortNeverIncreasesTime(t *testing.T) {
	f := func(pmRaw, pcRaw uint16, nRaw uint8) bool {
		p := baseParams()
		p.Yield = float64(pmRaw%1001) / 1000
		p.ContactYield = 0.99 + float64(pcRaw%100)/10000
		p.Sites = 1 + int(nRaw)%16
		full := p.EffectiveTestTime()
		p.AbortOnFail = true
		return p.EffectiveTestTime() <= full+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
