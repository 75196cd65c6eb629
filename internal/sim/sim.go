// Package sim is a cycle-accurate simulator of scan test application
// through the designed test infrastructure. It exists to cross-validate
// the analytic test-time model the optimizer relies on: the simulator
// actually moves stimulus and response bits through the wrapper chains of
// every module, following the pipelined shift-in/capture/shift-out
// protocol, and reports the cycle at which the test completes (and, with
// an injected fault, the cycle at which the first failing response bit
// reaches the ATE — the quantity behind the paper's abort-on-fail
// analysis).
//
// Two fidelity levels are provided. BitAccurate moves real bits through
// per-chain response registers and compares them against an independently
// derived expectation, so an off-by-one in the protocol or in the wrapper
// design surfaces as a miscompare. The registers are word-packed
// (internal/bitvec) and each shift window is processed as whole 64-bit
// words — XOR + popcount for the mismatch count, a trailing-zero scan for
// the first-fail cycle — and modules fan out across a bounded worker
// pool, so full bit-level validation of the 275-module PNX8550-class
// chips runs in seconds (it used to be infeasible beyond small SOCs; see
// DESIGN.md §7). Event mode walks the same pipeline schedule without
// materializing bits and remains the cheap default for Monte-Carlo use.
package sim

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"

	"multisite/internal/bitvec"
	"multisite/internal/engine"
	"multisite/internal/tam"
	"multisite/internal/wrapper"
)

// Mode selects the simulation fidelity.
type Mode int

const (
	// Event simulates the pipeline schedule without materializing bits.
	Event Mode = iota
	// BitAccurate shifts real bits through the wrapper chains.
	BitAccurate
)

// Fault describes an injected manufacturing fault: from FirstPattern on,
// one response bit of the module is inverted.
type Fault struct {
	// Module is the index into the SOC's Modules slice.
	Module int
	// Chain is the wrapper chain carrying the faulty cell.
	Chain int
	// Bit is the faulty position within the chain's scan-out, counted
	// from the cell nearest the output.
	Bit int
	// FirstPattern is the first pattern (0-based) whose response is
	// corrupted.
	FirstPattern int
}

// ModuleResult is the simulation outcome for one module.
type ModuleResult struct {
	// Module is the module index.
	Module int
	// Cycles is the simulated test length.
	Cycles int64
	// Mismatches counts corrupted response bits observed at the ATE.
	Mismatches int
	// FirstFailCycle is the module-relative cycle of the first
	// mismatch, or -1 if the module passed.
	FirstFailCycle int64
}

// GroupResult aggregates a channel group.
type GroupResult struct {
	// Group is the group index within the architecture.
	Group int
	// Cycles is the simulated group fill: modules test sequentially.
	Cycles int64
	// Modules lists the per-module outcomes in test order.
	Modules []ModuleResult
}

// Result is the outcome of simulating a full architecture.
type Result struct {
	// Groups lists per-group outcomes; groups run concurrently.
	Groups []GroupResult
	// Cycles is the SOC test length: the maximum group fill.
	Cycles int64
	// FirstFailCycle is the SOC-relative cycle of the earliest observed
	// mismatch across groups, or -1 if the chip passed.
	FirstFailCycle int64
}

// Run simulates test application for the architecture, optionally with
// injected faults, and returns the observed cycle counts. BitAccurate
// runs simulate modules on GOMAXPROCS workers (module simulations are
// independent and CPU-bound), Event runs serially (a module event walk is
// microseconds, not worth a goroutine). Results are deterministic:
// identical for every worker count.
func Run(arch *tam.Architecture, mode Mode, faults ...Fault) (*Result, error) {
	return run(arch, mode, 0, faults...)
}

// run is Run on a given number of module workers; 0 picks Run's default.
func run(arch *tam.Architecture, mode Mode, workers int, faults ...Fault) (*Result, error) {
	var byModule map[int][]Fault
	if len(faults) > 0 {
		byModule = make(map[int][]Fault, len(faults))
		for _, f := range faults {
			byModule[f.Module] = append(byModule[f.Module], f)
		}
	}

	// Flatten the (group, member) pairs: module simulations are
	// independent, only the assembly below is sequential.
	type slot struct{ gi, mi int }
	total := 0
	for gi := range arch.Groups {
		total += len(arch.Groups[gi].Members)
	}
	slots := make([]slot, 0, total)
	for gi, g := range arch.Groups {
		for _, mi := range g.Members {
			slots = append(slots, slot{gi, mi})
		}
	}
	simOne := func(s slot) (ModuleResult, error) {
		d := arch.Designer.Fit(s.mi, arch.Groups[s.gi].Width)
		if mode == BitAccurate {
			return simulateBits(arch, s.mi, d, byModule[s.mi])
		}
		return simulateEvents(arch, s.mi, d, byModule[s.mi])
	}

	if workers <= 0 {
		workers = 1
		if mode == BitAccurate {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	mrs := make([]ModuleResult, len(slots))
	if workers > 1 && len(slots) > 1 {
		if _, err := engine.Map(context.Background(), len(slots), workers,
			func(_ context.Context, i int) (struct{}, error) {
				mr, err := simOne(slots[i])
				if err != nil {
					return struct{}{}, fmt.Errorf("group %d module %d: %w", slots[i].gi, slots[i].mi, err)
				}
				mrs[i] = mr
				return struct{}{}, nil
			}); err != nil {
			return nil, err
		}
	} else {
		for i, s := range slots {
			mr, err := simOne(s)
			if err != nil {
				return nil, fmt.Errorf("group %d module %d: %w", s.gi, s.mi, err)
			}
			mrs[i] = mr
		}
	}

	// Deterministic assembly in test order, independent of which worker
	// finished first: group fills are prefix sums of the per-module cycle
	// counts, and the SOC first-fail is the minimum over the group-offset
	// module first-fails.
	res := &Result{FirstFailCycle: -1, Groups: make([]GroupResult, len(arch.Groups))}
	i := 0
	for gi := range arch.Groups {
		gr := &res.Groups[gi]
		gr.Group = gi
		gr.Modules = make([]ModuleResult, 0, len(arch.Groups[gi].Members))
		for range arch.Groups[gi].Members {
			mr := mrs[i]
			mr.Module = slots[i].mi
			i++
			if mr.FirstFailCycle >= 0 {
				abs := gr.Cycles + mr.FirstFailCycle
				if res.FirstFailCycle < 0 || abs < res.FirstFailCycle {
					res.FirstFailCycle = abs
				}
			}
			gr.Cycles += mr.Cycles
			gr.Modules = append(gr.Modules, mr)
		}
		if gr.Cycles > res.Cycles {
			res.Cycles = gr.Cycles
		}
	}
	return res, nil
}

// simulateEvents walks the pipelined scan protocol per pattern:
// shift-in of the first pattern, then per-pattern capture plus overlapped
// shift (max of scan-in and scan-out), then the final shift-out tail.
func simulateEvents(arch *tam.Architecture, mi int, d wrapper.Design, faults []Fault) (ModuleResult, error) {
	mr := ModuleResult{FirstFailCycle: -1}
	p := arch.SOC.Modules[mi].Patterns
	if p == 0 {
		return mr, nil
	}
	maxIn, maxOut := int64(d.MaxIn), int64(d.MaxOut)
	overlap := maxIn
	if maxOut > overlap {
		overlap = maxOut
	}
	// Hoist the fault validity filtering out of the pattern loop: only
	// faults landing on a real chain position are ever observable.
	var live []Fault
	for _, f := range faults {
		if f.Chain >= 0 && f.Chain < d.Chains && f.Bit >= 0 && f.Bit < d.ScanOut[f.Chain] {
			live = append(live, f)
		}
	}
	var cycles int64
	cycles += maxIn // load pattern 1
	for i := 0; i < p; i++ {
		cycles++ // capture pattern i
		if i < p-1 {
			cycles += overlap // shift in i+1 / out i
		} else {
			cycles += maxOut // final response drain
		}
		if mr.FirstFailCycle < 0 {
			if c, bad := eventFailCycle(live, i, cycles, maxOut, overlap, i == p-1); bad {
				mr.FirstFailCycle = c
				mr.Mismatches++ // at least one; event mode does not count bits
			}
		}
	}
	mr.Cycles = cycles
	return mr, nil
}

// eventFailCycle locates, without bit simulation, the cycle at which a
// fault in pattern i becomes visible: the response of pattern i emerges
// during the shift window that follows its capture; the faulty bit at
// position b of a chain appears after b+1 shift cycles. The faults slice
// is pre-filtered to observable chain positions.
func eventFailCycle(faults []Fault, pattern int, cyclesAfterWindow, maxOut, overlap int64, last bool) (int64, bool) {
	window := overlap
	if last {
		window = maxOut
	}
	best := int64(-1)
	for _, f := range faults {
		if pattern < f.FirstPattern {
			continue
		}
		// The shift window ended at cyclesAfterWindow; the bit
		// emerged f.Bit+1 cycles into the window.
		c := cyclesAfterWindow - window + int64(f.Bit) + 1
		if best < 0 || c < best {
			best = c
		}
	}
	return best, best >= 0
}

// chainFault is one injected fault localized to its wrapper chain.
type chainFault struct{ bit, firstPattern int }

// simulateBits moves real bits, word-packed. Each wrapper chain's response
// path is a packed shift register of its scan-out length; captured
// responses are a pseudo-random function of the (module, pattern, chain)
// identity standing in for the core's logic, and the ATE predicts each
// emerging bit independently, so any slip in the shift windows, capture
// ordering, or bit alignment produces miscompares.
//
// Every comparing shift window spans at least MaxOut cycles, which is at
// least every chain's scan-out length, so a window always drains the full
// register: the per-cycle shift loop of the naïve simulator (retained as
// the reference in reference_test.go) collapses into one whole-register
// word-level compare per (pattern, chain) — XOR + popcount for the
// mismatch count, a trailing-zero scan for the first failing bit — and
// the window itself is just a cycle-counter advance.
func simulateBits(arch *tam.Architecture, mi int, d wrapper.Design, faults []Fault) (ModuleResult, error) {
	mr := ModuleResult{FirstFailCycle: -1}
	m := &arch.SOC.Modules[mi]
	p := m.Patterns
	if p == 0 {
		return mr, nil
	}
	if err := d.Validate(m); err != nil {
		return mr, fmt.Errorf("invalid wrapper design: %w", err)
	}
	c := d.Chains
	maxIn, maxOut := d.MaxIn, d.MaxOut
	overlap := maxIn
	if maxOut > overlap {
		overlap = maxOut
	}

	// DUT state: per-chain packed registers holding the response bits
	// being shifted out (regs), and the ATE-side expectation (expect),
	// derived independently at capture time without faults. Both sides of
	// every chain are carved from one slab allocation.
	words := 0
	for ch := 0; ch < c; ch++ {
		words += bitvec.WordsFor(d.ScanOut[ch])
	}
	slab := make([]uint64, 2*words)
	regs := make([]bitvec.Vec, c)
	expect := make([]bitvec.Vec, c)
	off := 0
	carve := func(n int) bitvec.Vec {
		nw := bitvec.WordsFor(n)
		v := bitvec.FromWords(slab[off:off+nw:off+nw], n)
		off += nw
		return v
	}
	for ch := 0; ch < c; ch++ {
		regs[ch] = carve(d.ScanOut[ch])
	}
	for ch := 0; ch < c; ch++ {
		expect[ch] = carve(d.ScanOut[ch])
	}

	// Localize faults to their chain once per module; the captures used
	// to rescan the full fault slice for every (pattern, chain) pair.
	var chainFaults [][]chainFault
	if len(faults) > 0 {
		chainFaults = make([][]chainFault, c)
		for _, f := range faults {
			if f.Chain >= 0 && f.Chain < c && f.Bit >= 0 && f.Bit < d.ScanOut[f.Chain] {
				chainFaults[f.Chain] = append(chainFaults[f.Chain], chainFault{f.Bit, f.FirstPattern})
			}
		}
	}

	stim := newStimStream(arch.SOC.Name, mi)
	cycle := int64(maxIn) // load pattern 0: registers are zero, nothing compared
	for i := 0; i < p; i++ {
		cycle++ // capture pattern i
		window := overlap
		if i == p-1 {
			window = maxOut // final response drain
		}
		// Process the whole shift window: the bit at register position b
		// of any chain reaches the ATE at cycle+b+1.
		windowFirst := -1
		for ch := 0; ch < c; ch++ {
			if d.ScanOut[ch] == 0 {
				continue
			}
			e := expect[ch]
			stim.fill(e, i, ch)
			r := regs[ch]
			r.CopyFrom(e)
			if chainFaults != nil {
				for _, f := range chainFaults[ch] {
					if i >= f.firstPattern {
						r.Flip(f.bit)
					}
				}
			}
			count, first := bitvec.Compare(r, e)
			if count > 0 {
				mr.Mismatches += count
				if windowFirst < 0 || first < windowFirst {
					windowFirst = first
				}
			}
			// The register has fully drained (window ≥ MaxOut ≥ ScanOut);
			// the next capture overwrites it whole, so no zeroing needed.
		}
		if windowFirst >= 0 && mr.FirstFailCycle < 0 {
			mr.FirstFailCycle = cycle + int64(windowFirst) + 1
		}
		cycle += int64(window)
	}
	mr.Cycles = cycle
	return mr, nil
}

// stimStream is a deterministic, counter-based stimulus source keyed by
// SOC and module. The golden response of a (pattern, chain) pair is a
// splitmix64 stream seeded from the identity, emitting 64 response bits
// per step into the caller's buffer — the seed derivation is hoisted to
// stream construction, and filling allocates nothing (the old path built
// an fnv hasher, a formatted key string, and a rand.Rand per pair).
type stimStream struct {
	base uint64
}

func newStimStream(socName string, mi int) stimStream {
	h := fnv.New64a()
	h.Write([]byte(socName))
	return stimStream{base: h.Sum64() ^ mix64(uint64(mi)+0x5bf03635)}
}

// mix64 is the splitmix64 finalizer: a bijective 64-bit hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fill writes the golden response of (pattern, chain) into v, 64 bits per
// splitmix64 step. Index 0 is the bit nearest the scan output.
func (s stimStream) fill(v bitvec.Vec, pattern, chain int) {
	state := s.base ^ mix64(uint64(pattern)<<32|uint64(uint32(chain)))
	w := v.Words()
	for i := range w {
		state += 0x9e3779b97f4a7c15
		w[i] = mix64(state)
	}
	v.MaskTail()
}
