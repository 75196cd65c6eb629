package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/tam"
	"multisite/internal/wrapper"
)

// This file retains the straightforward bit-accurate simulator the packed
// engine in sim.go was rebuilt from: per-cycle boolean shift registers
// (copy(reg, reg[1:]) every shift cycle), a per-(pattern, chain)
// fnv + fmt.Fprintf + rand.New stimulus path, and a full fault-slice scan
// inside every capture. It is the executable specification of the
// protocol — the randomized differential tests below pin the packed
// simulator's Cycles/Mismatches/FirstFailCycle field-identical to it —
// and is never called on a hot path. (The stimulus generators differ by
// design: observable results depend only on where faults flip bits, not
// on the pseudo-random response values, and the tests confirm exactly
// that.)

// referenceRun mirrors the original serial Run over referenceSimulateBits.
func referenceRun(arch *tam.Architecture, faults ...Fault) (*Result, error) {
	byModule := make(map[int][]Fault)
	for _, f := range faults {
		byModule[f.Module] = append(byModule[f.Module], f)
	}
	res := &Result{FirstFailCycle: -1}
	for gi, g := range arch.Groups {
		gr := GroupResult{Group: gi}
		for _, mi := range g.Members {
			d := arch.Designer.Fit(mi, g.Width)
			mr, err := referenceSimulateBits(arch, mi, d, byModule[mi])
			if err != nil {
				return nil, fmt.Errorf("group %d module %d: %w", gi, mi, err)
			}
			if mr.FirstFailCycle >= 0 {
				abs := gr.Cycles + mr.FirstFailCycle
				if res.FirstFailCycle < 0 || abs < res.FirstFailCycle {
					res.FirstFailCycle = abs
				}
			}
			mr.Module = mi
			gr.Cycles += mr.Cycles
			gr.Modules = append(gr.Modules, mr)
		}
		if gr.Cycles > res.Cycles {
			res.Cycles = gr.Cycles
		}
		res.Groups = append(res.Groups, gr)
	}
	return res, nil
}

// referenceSimulateBits shifts real bits one cycle at a time through
// per-chain bool-slice registers.
func referenceSimulateBits(arch *tam.Architecture, mi int, d wrapper.Design, faults []Fault) (ModuleResult, error) {
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

	regs := make([][]bool, c)
	expect := make([][]bool, c)
	for i := range regs {
		regs[i] = make([]bool, d.ScanOut[i])
		expect[i] = make([]bool, d.ScanOut[i])
	}
	stim := referenceStimStream{socName: arch.SOC.Name, module: mi}

	var cycle int64
	shiftWindow := func(window int, outPattern int) {
		// outPattern < 0: nothing being shifted out (initial load).
		for w := 0; w < window; w++ {
			cycle++
			for ch := 0; ch < c; ch++ {
				reg := regs[ch]
				if len(reg) == 0 {
					continue
				}
				outBit := reg[0]
				copy(reg, reg[1:])
				reg[len(reg)-1] = false
				if outPattern >= 0 && w < d.ScanOut[ch] {
					if outBit != expect[ch][w] {
						mr.Mismatches++
						if mr.FirstFailCycle < 0 {
							mr.FirstFailCycle = cycle
						}
					}
				}
			}
		}
	}
	capture := func(pattern int) {
		cycle++
		for ch := 0; ch < c; ch++ {
			resp := referenceResponseBits(pattern, ch, d.ScanOut[ch], stim)
			copy(expect[ch], resp)
			for _, f := range faults {
				if f.Chain == ch && pattern >= f.FirstPattern && f.Bit < len(resp) {
					resp[f.Bit] = !resp[f.Bit]
				}
			}
			regs[ch] = resp
		}
	}

	shiftWindow(maxIn, -1) // load pattern 0
	for i := 0; i < p; i++ {
		capture(i)
		if i < p-1 {
			shiftWindow(overlap, i)
		} else {
			shiftWindow(maxOut, i)
		}
	}
	mr.Cycles = cycle
	return mr, nil
}

// referenceStimStream is the original allocation-heavy stimulus source.
type referenceStimStream struct {
	socName string
	module  int
}

func (s referenceStimStream) seedFor(pattern, chain int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d/%d", s.socName, s.module, pattern, chain)
	return int64(h.Sum64())
}

func referenceResponseBits(pattern, chain, n int, s referenceStimStream) []bool {
	rng := rand.New(rand.NewSource(s.seedFor(pattern, chain) ^ 0x5bf03635))
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Int63()&1 == 1
	}
	return out
}

// ---- differential tests: packed engine vs reference ----

// diffArch designs Step 1 for a named benchmark SOC.
func diffArch(t *testing.T, name string, channels int, depth int64) *tam.Architecture {
	t.Helper()
	a, err := tam.DesignStep1(benchdata.Shared(name),
		ate.ATE{Channels: channels, Depth: depth, ClockHz: 5e6})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// randomFaults draws k faults: mostly valid positions on the current
// wrapper designs, with occasional out-of-range chains/bits mixed in to
// pin the ignore-path too.
func randomFaults(rng *rand.Rand, arch *tam.Architecture, k int) []Fault {
	testable := arch.SOC.TestableModules()
	faults := make([]Fault, 0, k)
	for len(faults) < k {
		mi := testable[rng.Intn(len(testable))]
		f := RandomFault(arch, rng, mi)
		if rng.Intn(8) == 0 { // out-of-range chain: must be ignored
			f.Chain = 1 << 20
		}
		if rng.Intn(8) == 0 { // out-of-range bit: must be ignored
			f.Bit = 1 << 30
		}
		faults = append(faults, f)
	}
	return faults
}

func compareResults(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if got.Cycles != want.Cycles || got.FirstFailCycle != want.FirstFailCycle {
		t.Errorf("%s: (cycles, firstfail) = (%d, %d), reference (%d, %d)",
			ctx, got.Cycles, got.FirstFailCycle, want.Cycles, want.FirstFailCycle)
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d groups, reference %d", ctx, len(got.Groups), len(want.Groups))
	}
	for gi := range want.Groups {
		g, w := &got.Groups[gi], &want.Groups[gi]
		if g.Group != w.Group || g.Cycles != w.Cycles {
			t.Errorf("%s: group %d: (idx, cycles) = (%d, %d), reference (%d, %d)",
				ctx, gi, g.Group, g.Cycles, w.Group, w.Cycles)
		}
		if len(g.Modules) != len(w.Modules) {
			t.Fatalf("%s: group %d: %d modules, reference %d", ctx, gi, len(g.Modules), len(w.Modules))
		}
		for i := range w.Modules {
			if g.Modules[i] != w.Modules[i] {
				t.Errorf("%s: group %d module slot %d: %+v, reference %+v",
					ctx, gi, i, g.Modules[i], w.Modules[i])
			}
		}
	}
}

// TestPackedMatchesReferenceFaultFree pins the fault-free packed run —
// every field, every module — against the per-cycle reference.
func TestPackedMatchesReferenceFaultFree(t *testing.T) {
	for _, tc := range []struct {
		name     string
		channels int
		depth    int64
	}{
		{"d695", 256, 64 * benchdata.Ki},
		{"u226", 64, 256 * benchdata.Ki},
		{"d281", 64, 128 * benchdata.Ki},
	} {
		arch := diffArch(t, tc.name, tc.channels, tc.depth)
		want, err := referenceRun(arch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(arch, BitAccurate)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, tc.name, got, want)
	}
}

// TestPackedMatchesReferenceRandomFaults is the acceptance differential:
// seeded random fault sets (including out-of-range ones) on several SOCs,
// packed vs reference, field-identical, at several worker counts.
func TestPackedMatchesReferenceRandomFaults(t *testing.T) {
	cases := []struct {
		name     string
		channels int
		depth    int64
	}{
		{"d695", 256, 64 * benchdata.Ki},
		{"d695", 256, 128 * benchdata.Ki},
		{"u226", 64, 256 * benchdata.Ki},
		{"g1023", 128, 256 * benchdata.Ki},
	}
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for _, tc := range cases {
		arch := diffArch(t, tc.name, tc.channels, tc.depth)
		rng := rand.New(rand.NewSource(int64(len(tc.name))*1000 + tc.depth))
		for trial := 0; trial < trials; trial++ {
			faults := randomFaults(rng, arch, 1+rng.Intn(5))
			want, err := referenceRun(arch, faults...)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				got, err := run(arch, BitAccurate, workers, faults...)
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, fmt.Sprintf("%s/%dK trial %d workers %d",
					tc.name, tc.depth/benchdata.Ki, trial, workers), got, want)
			}
		}
	}
}
