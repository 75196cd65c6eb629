package sim

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"

	"multisite/internal/bitvec"
	"multisite/internal/engine"
	"multisite/internal/tam"
)

// Scenario is one independent Monte-Carlo trial of the full SOC test: a
// set of injected manufacturing faults (possibly empty — a passing die).
type Scenario struct {
	// Faults are the scenario's injected faults, in any order. Faults on
	// invalid chain positions are unobservable and ignored, exactly as in
	// Run.
	Faults []Fault
}

// ScenarioResult is the per-scenario outcome of RunScenarios: the same
// two numbers the Monte-Carlo consumers read off a full Result.
type ScenarioResult struct {
	// Cycles is the SOC test length (identical for every scenario: the
	// schedule does not depend on the faults).
	Cycles int64
	// FirstFailCycle is the SOC-relative cycle of the earliest observed
	// mismatch, or -1 if the scenario's die passes.
	FirstFailCycle int64
}

// RunScenarios is the scenario-parallel counterpart of Run for
// Monte-Carlo workloads: it packs up to 64 independent (fault set,
// outcome) scenarios into the 64 lanes of each uint64 word — the
// transpose of the bit-accurate engine's packing, where the 64 bits of a
// word are consecutive positions of one scan-out stream — and advances
// all of them with one XOR + mask sweep per (pattern, chain) shift
// window. The expectation side of every window is broadcast from the
// same counter-based splitmix64 stimulus stream as the bit-accurate
// engine (seed derivation unchanged), fault injection is a per-lane XOR
// mask at the fault's bit position, and first-fail extraction walks the
// window's mismatch words once, emitting every lane's module-relative
// first-fail cycle in the same sweep (bitvec.FirstDiffPerLane).
//
// Per-lane results are byte-stable against the scalar reference: for
// every scenario, Cycles and FirstFailCycle equal what Run(arch, Event,
// scenario.Faults...) reports (the event and bit engines agree on both —
// pinned by ext-bitval — because every comparing window drains whole
// registers). Modules that no lane faults are never walked at all, which
// is where the order-of-magnitude win over per-trial Run calls comes
// from: a 64-trial block charges each clean module one table lookup
// instead of 64 pattern walks.
//
// Scenario blocks of 64 lanes are independent: with more than one block
// they run on GOMAXPROCS workers. Results are deterministic: identical
// for every worker count.
func RunScenarios(arch *tam.Architecture, scenarios []Scenario) ([]ScenarioResult, error) {
	return runScenarios(arch, scenarios, 0)
}

// runScenarios is RunScenarios on a given number of block workers; 0
// picks RunScenarios' default.
func runScenarios(arch *tam.Architecture, scenarios []Scenario, workers int) ([]ScenarioResult, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("sim: no scenarios")
	}
	sched, err := newScenarioSchedule(arch)
	if err != nil {
		return nil, err
	}

	blocks := (len(scenarios) + bitvec.LaneCount - 1) / bitvec.LaneCount
	if workers <= 0 {
		workers = 1
		if blocks > 1 {
			workers = runtime.GOMAXPROCS(0)
		}
	}

	out := make([]ScenarioResult, len(scenarios))
	runBlock := func(bi int) error {
		lo := bi * bitvec.LaneCount
		hi := lo + bitvec.LaneCount
		if hi > len(scenarios) {
			hi = len(scenarios) // tail block: fewer than 64 live lanes
		}
		ffs := sched.runBlock(scenarios[lo:hi])
		for s := lo; s < hi; s++ {
			out[s] = ScenarioResult{Cycles: sched.socCycles, FirstFailCycle: ffs[s-lo]}
		}
		return nil
	}
	if workers > 1 && blocks > 1 {
		if _, err := engine.Map(context.Background(), blocks, workers,
			func(_ context.Context, bi int) (struct{}, error) {
				return struct{}{}, runBlock(bi)
			}); err != nil {
			return nil, err
		}
	} else {
		for bi := 0; bi < blocks; bi++ {
			if err := runBlock(bi); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// scenarioModule is the per-module schedule the lane engine needs: the
// wrapper geometry for fault validity and emergence arithmetic, and the
// module's group-relative start cycle for SOC assembly.
type scenarioModule struct {
	module   int
	patterns int
	scanOut  []int
	chains   int
	maxIn    int64
	overlap  int64
	start    int64 // group-relative cycle at which the module's test begins
	cycles   int64 // module test length (fault-independent)
	stim     stimStream
}

// scenarioSchedule is the fault-independent part of a scenario run,
// computed once and shared by every 64-lane block (read-only after
// construction, so blocks can fan out across workers).
type scenarioSchedule struct {
	modules   []scenarioModule
	byModule  map[int][]int // SOC module index -> slots (a module appears once in a valid arch)
	socCycles int64
	maxScan   int // longest scan-out chain, sizes the per-block scratch
}

func newScenarioSchedule(arch *tam.Architecture) (*scenarioSchedule, error) {
	s := &scenarioSchedule{byModule: make(map[int][]int)}
	for gi, g := range arch.Groups {
		var fill int64
		for _, mi := range g.Members {
			d := arch.Designer.Fit(mi, g.Width)
			m := &arch.SOC.Modules[mi]
			if m.Patterns > 0 {
				if err := d.Validate(m); err != nil {
					return nil, fmt.Errorf("group %d module %d: invalid wrapper design: %w", gi, mi, err)
				}
			}
			sm := scenarioModule{
				module:   mi,
				patterns: m.Patterns,
				scanOut:  d.ScanOut,
				chains:   d.Chains,
				maxIn:    int64(d.MaxIn),
				start:    fill,
				stim:     newStimStream(arch.SOC.Name, mi),
			}
			sm.overlap = sm.maxIn
			if int64(d.MaxOut) > sm.overlap {
				sm.overlap = int64(d.MaxOut)
			}
			if m.Patterns > 0 {
				// The event walk in closed form: load + p captures +
				// (p-1) overlapped windows + the final drain.
				sm.cycles = sm.maxIn + int64(m.Patterns) + int64(m.Patterns-1)*sm.overlap + int64(d.MaxOut)
			}
			for _, so := range d.ScanOut {
				if so > s.maxScan {
					s.maxScan = so
				}
			}
			s.byModule[mi] = append(s.byModule[mi], len(s.modules))
			s.modules = append(s.modules, sm)
			fill += sm.cycles
		}
		if fill > s.socCycles {
			s.socCycles = fill
		}
	}
	return s, nil
}

// laneFault is one observable injected fault localized to its lane.
type laneFault struct {
	chain, bit, firstPattern int
	lane                     uint64 // single-bit lane mask
}

// runBlock advances up to 64 scenarios in lockstep and returns their
// SOC-relative first-fail cycles (-1 = pass). Only modules with at least
// one observable fault in some lane are walked.
func (s *scenarioSchedule) runBlock(block []Scenario) []int64 {
	// Localize every observable fault to its (slot, lane).
	perSlot := make(map[int][]laneFault)
	for li, sc := range block {
		lane := uint64(1) << uint(li)
		for _, f := range sc.Faults {
			for _, slot := range s.byModule[f.Module] {
				sm := &s.modules[slot]
				if f.Chain < 0 || f.Chain >= sm.chains || f.Bit < 0 || f.Bit >= sm.scanOut[f.Chain] {
					continue // unobservable, exactly as the scalar engines filter
				}
				fp := f.FirstPattern
				if fp < 0 {
					fp = 0
				}
				if fp >= sm.patterns {
					continue // corrupts no applied pattern
				}
				perSlot[slot] = append(perSlot[slot], laneFault{f.Chain, f.Bit, fp, lane})
			}
		}
	}

	socFF := make([]int64, len(block))
	for i := range socFF {
		socFF[i] = -1
	}
	if len(perSlot) == 0 {
		return socFF
	}
	// Deterministic slot order (map iteration is not).
	slots := make([]int, 0, len(perSlot))
	for slot := range perSlot {
		slots = append(slots, slot)
	}
	slices.Sort(slots)

	// Per-block scratch: the lane-transposed response window and the
	// packed expectation it is broadcast from, sized by the longest chain.
	resp := make([]uint64, s.maxScan)
	expWords := make([]uint64, bitvec.WordsFor(s.maxScan))
	var firstPos [bitvec.LaneCount]int
	var moduleFF [bitvec.LaneCount]int64

	for _, slot := range slots {
		sm := &s.modules[slot]
		s.walkModule(sm, perSlot[slot], resp, expWords, &firstPos, &moduleFF)
		for li := range block {
			if ff := moduleFF[li]; ff >= 0 {
				abs := sm.start + ff
				if socFF[li] < 0 || abs < socFF[li] {
					socFF[li] = abs
				}
			}
		}
	}
	return socFF
}

// walkModule runs the lane-parallel shift windows of one module and
// writes each lane's module-relative first-fail cycle (-1 = pass) into
// moduleFF. faults hold only observable positions.
//
// The walk visits shift windows in pattern order, but only the windows
// where some pending lane's fault first becomes active: a fault on a
// valid chain position always mismatches in its own first window (the
// window drains the whole register), and a mismatch in an earlier window
// always precedes any mismatch in a later one (window length ≥ MaxOut >
// any bit position), so a lane is resolved the first time any of its
// faults is live — later windows cannot improve it. Every fault is
// therefore injected in at most one window.
func (s *scenarioSchedule) walkModule(sm *scenarioModule, faults []laneFault, resp, expWords []uint64, firstPos *[bitvec.LaneCount]int, moduleFF *[bitvec.LaneCount]int64) {
	for i := range moduleFF {
		moduleFF[i] = -1
	}
	var pending uint64
	for _, f := range faults {
		pending |= f.lane
	}
	// Windows in first-active order; ties grouped by chain below.
	slices.SortFunc(faults, func(a, b laneFault) int {
		if a.firstPattern != b.firstPattern {
			return a.firstPattern - b.firstPattern
		}
		if a.chain != b.chain {
			return a.chain - b.chain
		}
		if a.bit != b.bit {
			return a.bit - b.bit
		}
		switch {
		case a.lane < b.lane:
			return -1
		case a.lane > b.lane:
			return 1
		}
		return 0
	})
	// Collapse exact duplicates: a fault injected twice would XOR-cancel
	// in its window, but the scalar reference observes each independently.
	uniq := faults[:0]
	for i, f := range faults {
		if i == 0 || f != faults[i-1] {
			uniq = append(uniq, f)
		}
	}
	faults = uniq

	fi := 0
	for fi < len(faults) && pending != 0 {
		pattern := faults[fi].firstPattern
		windowEnd := fi
		for windowEnd < len(faults) && faults[windowEnd].firstPattern == pattern {
			windowEnd++
		}
		// Cycle count after the capture of this pattern, when its shift
		// window begins: load + (pattern+1) captures + pattern windows.
		windowStart := sm.maxIn + int64(pattern+1) + int64(pattern)*sm.overlap

		// One lane can hold faults on several chains of this window; the
		// bit position decides emergence order, so merge per-chain first
		// positions by minimum before resolving.
		var windowFirst [bitvec.LaneCount]int64
		var windowHit uint64
		for ci := fi; ci < windowEnd; {
			chain := faults[ci].chain
			// A mismatch can only surface at a flipped position, and resp
			// equals the broadcast expectation everywhere else, so the walk
			// need not extend past this chain's highest fault bit (faults
			// are bit-sorted within the chain run). The stimulus stream is
			// word-sequential per (pattern, chain): a prefix fill is a
			// prefix of the full fill, so the truncation changes nothing.
			run := ci
			for run < windowEnd && faults[run].chain == chain {
				run++
			}
			// Faults are bit-sorted within the run, so the run's flips —
			// and with them every possible mismatch — live in
			// [faults[ci].bit, faults[run-1].bit]: positions outside that
			// range equal the broadcast expectation by construction and
			// are neither materialized nor scanned.
			lo := faults[ci].bit
			n := faults[run-1].bit + 1
			lanes := bitvec.LanesFromWords(resp[:n])
			e := bitvec.FromWords(expWords[:bitvec.WordsFor(n)], n)
			// The expectation of every lane is the same splitmix64
			// stream the bit engine predicts against; broadcast it, then
			// invert each faulty lane's bit at its fault site.
			sm.stim.fill(e, pattern, chain)
			lanes.BroadcastFrom(e, lo)
			for ; ci < run; ci++ {
				lanes.FlipLanes(faults[ci].bit, faults[ci].lane)
			}
			resolved := bitvec.FirstDiffPerLaneFrom(lanes, e, pending, firstPos[:], lo)
			for m := resolved; m != 0; {
				li := bits.TrailingZeros64(m)
				m &^= 1 << uint(li)
				// The bit at register position b reaches the ATE b+1
				// cycles into the window.
				c := windowStart + int64(firstPos[li]) + 1
				if windowHit&(1<<uint(li)) == 0 || c < windowFirst[li] {
					windowFirst[li] = c
				}
				windowHit |= 1 << uint(li)
			}
		}
		for m := windowHit; m != 0; {
			li := bits.TrailingZeros64(m)
			m &^= 1 << uint(li)
			moduleFF[li] = windowFirst[li]
		}
		pending &^= windowHit
		fi = windowEnd
	}
}
