package sim

import (
	"context"
	"fmt"
	"math/rand"

	"multisite/internal/engine"
	"multisite/internal/tam"
	"multisite/internal/wrapper"
)

// SiteOutcome describes one site of a multi-site touchdown.
type SiteOutcome struct {
	// ContactOK is whether the site passed its contact test.
	ContactOK bool
	// Faults are the manufacturing faults injected into the site's die.
	Faults []Fault
}

// TouchdownResult is the outcome of simulating one multi-site touchdown.
type TouchdownResult struct {
	// Sites echoes the per-site results: first-fail cycle or -1.
	Sites []int64
	// AbortCycle is the cycle at which an abort-on-fail tester could
	// stop: the latest first-fail over the contacted sites if every
	// contacted site fails, otherwise the full test length. -1 when no
	// site was contacted (the manufacturing test is skipped entirely).
	AbortCycle int64
	// FullCycles is the architecture's complete test length.
	FullCycles int64
}

// multiSite simulates one touchdown of n sites in lockstep: all contacted
// sites receive the same stimuli; the test can be aborted only once every
// contacted site has started failing — the paper's Section 4 argument for
// why abort-on-fail loses value under multi-site testing. Each contacted
// site is simulated serially at Event fidelity.
func multiSite(arch *tam.Architecture, sites []SiteOutcome) (*TouchdownResult, error) {
	res := &TouchdownResult{FullCycles: arch.TestCycles(), AbortCycle: -1}
	res.Sites = make([]int64, 0, len(sites))
	contacted := 0
	allFailing := true
	var latestFirstFail int64 = -1
	for i, site := range sites {
		if !site.ContactOK {
			res.Sites = append(res.Sites, -1)
			continue
		}
		contacted++
		r, err := Run(arch, Event, site.Faults...)
		if err != nil {
			return nil, fmt.Errorf("site %d: %w", i, err)
		}
		ff := r.FirstFailCycle
		res.Sites = append(res.Sites, ff)
		if ff < 0 {
			allFailing = false
		} else if ff > latestFirstFail {
			latestFirstFail = ff
		}
	}
	switch {
	case contacted == 0:
		res.AbortCycle = -1
	case allFailing:
		res.AbortCycle = latestFirstFail
	default:
		res.AbortCycle = res.FullCycles
	}
	return res, nil
}

// siteDrawer draws per-site contact and fault outcomes for Monte-Carlo
// touchdowns: each site passes contact with contactYield^pins probability,
// and independently receives a random single fault with probability
// 1−yield. It holds the draw-invariant state, so loops over touchdowns
// pay the per-architecture setup (testable list, per-module designs,
// contact probability) once.
type siteDrawer struct {
	testable []int
	patterns []int
	designs  []wrapper.Design
	pcDev    float64
}

func newSiteDrawer(arch *tam.Architecture, pins int, contactYield float64) *siteDrawer {
	sd := &siteDrawer{testable: arch.SOC.TestableModules(), pcDev: 1}
	for i := 0; i < pins; i++ {
		sd.pcDev *= contactYield
	}
	groups := GroupIndex(arch)
	sd.patterns = make([]int, len(sd.testable))
	sd.designs = make([]wrapper.Design, len(sd.testable))
	for i, mi := range sd.testable {
		width := 1
		if gi := groups[mi]; gi >= 0 {
			width = arch.Groups[gi].Width
		}
		sd.patterns[i] = arch.SOC.Modules[mi].Patterns
		sd.designs[i] = arch.Designer.Fit(mi, width)
	}
	return sd
}

func (sd *siteDrawer) draw(rng *rand.Rand, n int, yield float64) []SiteOutcome {
	out := make([]SiteOutcome, n)
	for i := range out {
		out[i].ContactOK = rng.Float64() < sd.pcDev
		if rng.Float64() >= yield {
			k := rng.Intn(len(sd.testable))
			out[i].Faults = []Fault{FaultAt(rng, sd.testable[k], sd.patterns[k], sd.designs[k])}
		}
	}
	return out
}

// RandomFault draws a fault for module mi: a uniformly random first
// pattern, placed on a valid chain position of the module's current
// wrapper design in arch. The rng consumption order (pattern, chain,
// bit) is shared by every Monte-Carlo fault source in the repository.
// A module outside every group has no group width to design against;
// its fault is drawn on the canonical width-1 wrapper (one chain holding
// the whole module), so the draw still lands on a real scan-out position
// instead of the old unobservable {Chain: 0, Bit: 0} placeholder.
func RandomFault(arch *tam.Architecture, rng *rand.Rand, mi int) Fault {
	width := 1
	if gi, ok := groupOf(arch, mi); ok {
		width = arch.Groups[gi].Width
	}
	return FaultAt(rng, mi, arch.SOC.Modules[mi].Patterns, arch.Designer.Fit(mi, width))
}

// FaultAt is RandomFault for callers that cache the per-module wrapper
// designs across many draws (e.g. per-trial Monte-Carlo loops). The
// chain is drawn uniformly among the chains with positive scan-out: a
// draw on an empty chain would pass the observability filters' idea of
// a fault but never reach the ATE, silently turning a failing die into
// a passing one and biasing every measured Monte-Carlo mean upward.
// The documented (pattern, chain, bit) consumption order is preserved —
// one Intn per stage — and on designs without empty chains the drawn
// values are identical to the historical stream.
func FaultAt(rng *rand.Rand, mi, patterns int, d wrapper.Design) Fault {
	f := Fault{Module: mi, FirstPattern: rng.Intn(patterns)}
	observable := 0
	for _, so := range d.ScanOut[:d.Chains] {
		if so > 0 {
			observable++
		}
	}
	if observable > 0 {
		k := rng.Intn(observable)
		for c, so := range d.ScanOut[:d.Chains] {
			if so == 0 {
				continue
			}
			if k == 0 {
				f.Chain = c
				f.Bit = rng.Intn(so)
				break
			}
			k--
		}
	}
	return f
}

// GroupIndex returns a module→group lookup table for the architecture
// (-1 for modules outside every group), built in one pass over the
// groups — the hoisted form of groupOf for callers that resolve many
// modules (per-trial Monte-Carlo loops).
func GroupIndex(arch *tam.Architecture) []int {
	idx := make([]int, len(arch.SOC.Modules))
	for i := range idx {
		idx[i] = -1
	}
	for gi, g := range arch.Groups {
		for _, m := range g.Members {
			idx[m] = gi
		}
	}
	return idx
}

func groupOf(arch *tam.Architecture, mi int) (int, bool) {
	for gi, g := range arch.Groups {
		for _, m := range g.Members {
			if m == mi {
				return gi, true
			}
		}
	}
	return 0, false
}

// ExpectedAbortSavings estimates, by Monte-Carlo over touchdowns, the mean
// fraction of the test length an abort-on-fail tester saves at n sites —
// the simulated counterpart of the paper's Fig. 7(b), without the
// "failing devices take zero time" idealization of Eq. 4.4.
//
// The per-touchdown site outcomes are drawn serially (the PRNG stream is
// part of the function's contract: results are stable for a given seed),
// then every contacted (touchdown, site) die becomes one lane of the
// scenario-parallel engine — sites×touchdowns trials packed 64 per word
// (RunScenarios) — and the per-touchdown abort reduction runs over the
// per-lane first-fail cycles in touchdown order. The returned mean is
// bit-identical to the retained scalar reference
// (ExpectedAbortSavingsScalar) for every seed.
func ExpectedAbortSavings(arch *tam.Architecture, n, pins int, contactYield, yield float64, touchdowns int, seed int64) (float64, error) {
	outcomes, err := drawTouchdowns(arch, n, pins, contactYield, yield, touchdowns, seed)
	if err != nil {
		return 0, err
	}
	// Pack the contacted dies: lane order is (touchdown, site) — the
	// reduction below re-slices the flat results per touchdown.
	var scenarios []Scenario
	counts := make([]int, touchdowns)
	for td, sites := range outcomes {
		for i := range sites {
			if sites[i].ContactOK {
				scenarios = append(scenarios, Scenario{Faults: sites[i].Faults})
				counts[td]++
			}
		}
	}
	full := float64(arch.TestCycles())
	var results []ScenarioResult
	if len(scenarios) > 0 {
		if results, err = RunScenarios(arch, scenarios); err != nil {
			return 0, err
		}
	}
	var saved float64
	next := 0
	for td := range outcomes {
		firstFails := results[next : next+counts[td]]
		next += counts[td]
		if counts[td] == 0 {
			saved++ // no contact: whole manufacturing test skipped
			continue
		}
		// The multi-site abort rule: stop at the latest first-fail only
		// once every contacted site is failing, else run the full test.
		allFailing := true
		var latest int64 = -1
		for _, r := range firstFails {
			if r.FirstFailCycle < 0 {
				allFailing = false
				break
			}
			if r.FirstFailCycle > latest {
				latest = r.FirstFailCycle
			}
		}
		if allFailing {
			saved += (full - float64(latest)) / full
		}
	}
	return saved / float64(touchdowns), nil
}

// ExpectedAbortSavingsScalar is the retained scalar reference for
// ExpectedAbortSavings: identical draws, one Event-mode touchdown
// simulation per lane-free trial. The randomized differential tests and
// the scalar-vs-lanes benchmarks hold the lane-packed path to this
// implementation bit for bit.
func ExpectedAbortSavingsScalar(arch *tam.Architecture, n, pins int, contactYield, yield float64, touchdowns int, seed int64) (float64, error) {
	outcomes, err := drawTouchdowns(arch, n, pins, contactYield, yield, touchdowns, seed)
	if err != nil {
		return 0, err
	}
	full := float64(arch.TestCycles())
	fractions, err := engine.Map(context.Background(), touchdowns, 0,
		func(_ context.Context, td int) (float64, error) {
			r, err := multiSite(arch, outcomes[td])
			if err != nil {
				return 0, err
			}
			if r.AbortCycle < 0 {
				return 1, nil // no contact: whole manufacturing test skipped
			}
			return (full - float64(r.AbortCycle)) / full, nil
		})
	if err != nil {
		return 0, err
	}
	var saved float64
	for _, f := range fractions {
		saved += f
	}
	return saved / float64(touchdowns), nil
}

// drawTouchdowns draws the per-touchdown site outcomes serially — the
// shared PRNG stream both ExpectedAbortSavings implementations consume.
func drawTouchdowns(arch *tam.Architecture, n, pins int, contactYield, yield float64, touchdowns int, seed int64) ([][]SiteOutcome, error) {
	if touchdowns < 1 {
		return nil, fmt.Errorf("sim: need at least one touchdown")
	}
	rng := rand.New(rand.NewSource(seed))
	sd := newSiteDrawer(arch, pins, contactYield)
	outcomes := make([][]SiteOutcome, touchdowns)
	for td := range outcomes {
		outcomes[td] = sd.draw(rng, n, yield)
	}
	return outcomes, nil
}
