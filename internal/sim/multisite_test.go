package sim

import (
	"math/rand"
	"runtime"
	"testing"

	"multisite/internal/soc"
	"multisite/internal/tam"
	"multisite/internal/wrapper"
)

func TestMultiSiteAllPass(t *testing.T) {
	arch := d695Arch(t, 64)
	sites := []SiteOutcome{{ContactOK: true}, {ContactOK: true}}
	r, err := multiSite(arch, sites, Event, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.AbortCycle != r.FullCycles {
		t.Errorf("all-pass touchdown aborted at %d, want full %d", r.AbortCycle, r.FullCycles)
	}
	for i, s := range r.Sites {
		if s != -1 {
			t.Errorf("site %d reported failure at %d", i, s)
		}
	}
}

func TestMultiSiteNoContact(t *testing.T) {
	arch := d695Arch(t, 64)
	r, err := multiSite(arch, []SiteOutcome{{}, {}}, Event, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.AbortCycle != -1 {
		t.Errorf("uncontacted touchdown has abort cycle %d, want -1 (skip)", r.AbortCycle)
	}
}

func TestMultiSiteOnePassingBlocksAbort(t *testing.T) {
	// The paper's key multi-site observation: a single passing site
	// forces the full test.
	arch := d695Arch(t, 64)
	mi := arch.Groups[0].Members[0]
	sites := []SiteOutcome{
		{ContactOK: true, Faults: []Fault{{Module: mi, FirstPattern: 0}}},
		{ContactOK: true}, // passes
	}
	r, err := multiSite(arch, sites, Event, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.AbortCycle != r.FullCycles {
		t.Errorf("abort at %d despite a passing site (full %d)", r.AbortCycle, r.FullCycles)
	}
	if r.Sites[0] < 0 || r.Sites[1] != -1 {
		t.Errorf("site outcomes = %v", r.Sites)
	}
}

func TestMultiSiteAllFailingAbortsAtLatest(t *testing.T) {
	arch := d695Arch(t, 64)
	mi := arch.Groups[0].Members[0]
	early := Fault{Module: mi, FirstPattern: 0}
	m := &arch.SOC.Modules[mi]
	late := Fault{Module: mi, FirstPattern: m.Patterns - 1}
	r, err := multiSite(arch, []SiteOutcome{
		{ContactOK: true, Faults: []Fault{early}},
		{ContactOK: true, Faults: []Fault{late}},
	}, Event, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.AbortCycle < 0 || r.AbortCycle == r.FullCycles {
		t.Fatalf("expected early abort, got %d (full %d)", r.AbortCycle, r.FullCycles)
	}
	// Abort waits for the LATEST first-fail (the last site to start
	// failing), which must match the late site's fail cycle.
	if r.AbortCycle != r.Sites[1] {
		t.Errorf("abort at %d, want the late site's %d", r.AbortCycle, r.Sites[1])
	}
	if r.Sites[0] >= r.Sites[1] {
		t.Errorf("early site %d not before late site %d", r.Sites[0], r.Sites[1])
	}
}

func TestRandomSiteOutcomesDeterministic(t *testing.T) {
	arch := d695Arch(t, 64)
	a := newSiteDrawer(arch, 32, 0.999).draw(rand.New(rand.NewSource(1)), 4, 0.8)
	b := newSiteDrawer(arch, 32, 0.999).draw(rand.New(rand.NewSource(1)), 4, 0.8)
	if len(a) != 4 || len(b) != 4 {
		t.Fatal("wrong site count")
	}
	for i := range a {
		if a[i].ContactOK != b[i].ContactOK || len(a[i].Faults) != len(b[i].Faults) {
			t.Errorf("site %d differs between identical seeds", i)
		}
	}
}

func TestExpectedAbortSavingsDecreasesWithSites(t *testing.T) {
	// The simulated counterpart of Fig. 7(b): the mean saved fraction
	// shrinks as sites are added.
	arch := d695Arch(t, 64)
	const yield = 0.6
	s1, err := ExpectedAbortSavings(arch, 1, 32, 1, yield, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	s8, err := ExpectedAbortSavings(arch, 8, 32, 1, yield, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s1 <= s8 {
		t.Errorf("saving at 1 site (%.3f) not above 8 sites (%.3f)", s1, s8)
	}
	if s8 > 0.02 {
		t.Errorf("at 8 sites the saving should be negligible, got %.3f", s8)
	}
	if s1 < 0.1 {
		t.Errorf("at 1 site and 60%% yield the saving should be substantial, got %.3f", s1)
	}
}

func TestExpectedAbortSavingsValidation(t *testing.T) {
	arch := d695Arch(t, 64)
	if _, err := ExpectedAbortSavings(arch, 1, 32, 1, 1, 0, 1); err == nil {
		t.Error("zero touchdowns accepted")
	}
}

func TestExpectedAbortSavingsPerfectYield(t *testing.T) {
	arch := d695Arch(t, 64)
	s, err := ExpectedAbortSavings(arch, 4, 32, 1, 1, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Errorf("perfect yield saving = %g, want 0", s)
	}
}

func TestMultiSiteModeBitMatchesEvent(t *testing.T) {
	// Bit-level touchdown fidelity: same abort semantics, same cycles —
	// the whole-register packed engine makes this cheap enough to pin.
	arch := d695Arch(t, 64)
	mi := arch.Groups[0].Members[0]
	m := &arch.SOC.Modules[mi]
	sites := []SiteOutcome{
		{ContactOK: true, Faults: []Fault{{Module: mi, FirstPattern: 0}}},
		{ContactOK: true, Faults: []Fault{{Module: mi, FirstPattern: m.Patterns - 1}}},
		{ContactOK: false},
	}
	ev, err := multiSite(arch, sites, Event, 1)
	if err != nil {
		t.Fatal(err)
	}
	bit, err := multiSite(arch, sites, BitAccurate, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if ev.AbortCycle != bit.AbortCycle || ev.FullCycles != bit.FullCycles {
		t.Errorf("abort/full: event (%d,%d) vs bit (%d,%d)",
			ev.AbortCycle, ev.FullCycles, bit.AbortCycle, bit.FullCycles)
	}
	for i := range ev.Sites {
		if ev.Sites[i] != bit.Sites[i] {
			t.Errorf("site %d: event %d vs bit %d", i, ev.Sites[i], bit.Sites[i])
		}
	}
}

func TestMultiSiteDeterministicAcrossWorkers(t *testing.T) {
	arch := d695Arch(t, 64)
	rng := rand.New(rand.NewSource(9))
	sites := newSiteDrawer(arch, 32, 0.999).draw(rng, 8, 0.7)
	want, err := multiSite(arch, sites, Event, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := multiSite(arch, sites, Event, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.AbortCycle != want.AbortCycle || len(got.Sites) != len(want.Sites) {
			t.Fatalf("workers=%d: abort %d vs serial %d", workers, got.AbortCycle, want.AbortCycle)
		}
		for i := range want.Sites {
			if got.Sites[i] != want.Sites[i] {
				t.Errorf("workers=%d site %d: %d vs serial %d", workers, i, got.Sites[i], want.Sites[i])
			}
		}
	}
}

// TestFaultAtSkipsEmptyChains is the regression pin for the
// zero-scan-out draw bug: a design with empty chains used to yield
// faults like {Chain: c, Bit: 0} with ScanOut[c] == 0, which every
// observability filter drops — the drawn "failing" module silently
// simulated as passing. Every draw must now land on a chain that can
// actually reach the ATE.
func TestFaultAtSkipsEmptyChains(t *testing.T) {
	d := wrapper.Design{
		Chains:  4,
		ScanOut: []int{0, 7, 0, 3},
		MaxOut:  7,
	}
	rng := rand.New(rand.NewSource(5))
	sawChain := map[int]bool{}
	for i := 0; i < 500; i++ {
		f := FaultAt(rng, 2, 11, d)
		if f.Module != 2 {
			t.Fatalf("module = %d", f.Module)
		}
		if f.FirstPattern < 0 || f.FirstPattern >= 11 {
			t.Fatalf("first pattern %d out of range", f.FirstPattern)
		}
		if d.ScanOut[f.Chain] == 0 {
			t.Fatalf("draw %d landed on empty chain %d (unobservable)", i, f.Chain)
		}
		if f.Bit < 0 || f.Bit >= d.ScanOut[f.Chain] {
			t.Fatalf("draw %d: bit %d outside chain %d scan-out %d", i, f.Bit, f.Chain, d.ScanOut[f.Chain])
		}
		sawChain[f.Chain] = true
	}
	if !sawChain[1] || !sawChain[3] {
		t.Errorf("draws did not cover both observable chains: %v", sawChain)
	}
}

// TestFaultAtDrawOrderUnchanged pins the documented pattern→chain→bit
// PRNG consumption order: on a design without empty chains the drawn
// values are the historical stream, one Intn per stage.
func TestFaultAtDrawOrderUnchanged(t *testing.T) {
	d := wrapper.Design{Chains: 3, ScanOut: []int{5, 9, 2}, MaxOut: 9}
	a := rand.New(rand.NewSource(77))
	b := rand.New(rand.NewSource(77))
	for i := 0; i < 200; i++ {
		f := FaultAt(a, 0, 13, d)
		wantPattern := b.Intn(13)
		wantChain := b.Intn(3)
		wantBit := b.Intn(d.ScanOut[wantChain])
		if f.FirstPattern != wantPattern || f.Chain != wantChain || f.Bit != wantBit {
			t.Fatalf("draw %d: got (%d,%d,%d), historical stream (%d,%d,%d)",
				i, f.FirstPattern, f.Chain, f.Bit, wantPattern, wantChain, wantBit)
		}
	}
}

// TestFaultAtAllChainsEmpty: with no observable chain at all there is
// nothing to draw; the fault keeps the zero position and only the
// pattern draw is consumed (so downstream streams stay deterministic).
func TestFaultAtAllChainsEmpty(t *testing.T) {
	d := wrapper.Design{Chains: 2, ScanOut: []int{0, 0}}
	a := rand.New(rand.NewSource(3))
	b := rand.New(rand.NewSource(3))
	f := FaultAt(a, 4, 9, d)
	if f.Chain != 0 || f.Bit != 0 {
		t.Errorf("fault = %+v, want zero chain position", f)
	}
	b.Intn(9)
	if a.Int63() != b.Int63() {
		t.Error("all-empty design consumed more than the pattern draw")
	}
}

// TestRandomFaultUngroupedModuleObservable is the regression pin for the
// ungrouped-module branch: it used to return {Chain: 0, Bit: 0} without
// consulting any wrapper design. It now shares the corrected FaultAt
// draw against the canonical width-1 wrapper, so the bit position varies
// over that design's real scan-out instead of sticking to 0.
func TestRandomFaultUngroupedModuleObservable(t *testing.T) {
	s := &soc.SOC{Name: "ungrouped", Modules: []soc.Module{
		{ID: 0, Inputs: 4},
		{ID: 1, Inputs: 3, Outputs: 6, ScanChains: soc.ChainsOfLengths(20, 10), Patterns: 8},
	}}
	arch := &tam.Architecture{SOC: s, Designer: wrapper.For(s), Depth: 1 << 20}
	d1 := arch.Designer.Fit(1, 1)
	rng := rand.New(rand.NewSource(21))
	sawNonzeroBit := false
	for i := 0; i < 300; i++ {
		f := RandomFault(arch, rng, 1)
		if f.Chain < 0 || f.Chain >= d1.Chains || d1.ScanOut[f.Chain] == 0 {
			t.Fatalf("draw %d: chain %d not observable on the width-1 design", i, f.Chain)
		}
		if f.Bit < 0 || f.Bit >= d1.ScanOut[f.Chain] {
			t.Fatalf("draw %d: bit %d outside scan-out %d", i, f.Bit, d1.ScanOut[f.Chain])
		}
		if f.Bit > 0 {
			sawNonzeroBit = true
		}
	}
	if !sawNonzeroBit {
		t.Error("every draw hit bit 0: the wrapper design is not being consulted")
	}
}

func TestGroupIndexMatchesGroupOf(t *testing.T) {
	arch := d695Arch(t, 64)
	idx := GroupIndex(arch)
	if len(idx) != len(arch.SOC.Modules) {
		t.Fatalf("index covers %d modules, want %d", len(idx), len(arch.SOC.Modules))
	}
	for mi := range arch.SOC.Modules {
		gi, ok := groupOf(arch, mi)
		switch {
		case ok && idx[mi] != gi:
			t.Errorf("module %d: index %d, groupOf %d", mi, idx[mi], gi)
		case !ok && idx[mi] != -1:
			t.Errorf("module %d: index %d for ungrouped module", mi, idx[mi])
		}
	}
}

// TestExpectedAbortSavingsLanesMatchesScalar holds the lane-packed
// ExpectedAbortSavings to the retained scalar reference bit for bit
// across sites × yields × seeds (touchdown counts chosen so sites ×
// trials packs both full and partial lane blocks).
func TestExpectedAbortSavingsLanesMatchesScalar(t *testing.T) {
	arch := d695Arch(t, 64)
	for _, n := range []int{1, 3, 8} {
		for _, yield := range []float64{0.3, 0.7, 0.95} {
			for seed := int64(1); seed <= 4; seed++ {
				touchdowns := 23 + int(seed)*31
				lanes, err := ExpectedAbortSavings(arch, n, 32, 0.995, yield, touchdowns, seed)
				if err != nil {
					t.Fatal(err)
				}
				scalar, err := ExpectedAbortSavingsScalar(arch, n, 32, 0.995, yield, touchdowns, seed)
				if err != nil {
					t.Fatal(err)
				}
				if lanes != scalar {
					t.Errorf("n=%d yield=%g seed=%d: lanes %v != scalar %v", n, yield, seed, lanes, scalar)
				}
			}
		}
	}
}
