// Package wrapper implements test wrapper design for embedded cores,
// following the COMBINE algorithm of Marinissen, Goel, and Lousberg,
// "Wrapper Design for Embedded Core Test" (ITC 2000) — reference [14] of the
// reproduced paper.
//
// A wrapper for TAM width w concatenates the module's internal scan chains
// and its wrapper input/output cells into at most w wrapper chains. The
// scan-in length si of a wrapper chain is its internal scan cells plus its
// wrapper input cells; the scan-out length so is its internal scan cells
// plus its wrapper output cells. With p test patterns, pipelined
// shift-in/shift-out gives the module test time (in test clock cycles)
//
//	T(w) = (1 + max(si*, so*)) · p + min(si*, so*)
//
// where si*/so* are the maxima over the wrapper chains. COMBINE balances
// the chains with Largest Processing Time first (LPT) partitioning of the
// internal scan chains and greedy water-filling of the wrapper cells, and
// tries every wrapper chain count c ≤ w, so the resulting T(w) is
// non-increasing in w by construction.
package wrapper

import (
	"fmt"
	"sort"

	"multisite/internal/soc"
)

// Design describes one concrete wrapper configuration for a module.
type Design struct {
	// Width is the TAM width the design was requested for.
	Width int
	// Chains is the number of wrapper chains actually used (≤ Width).
	Chains int
	// ScanIn[i] is the scan-in length of wrapper chain i (internal scan
	// cells + wrapper input cells on that chain).
	ScanIn []int
	// ScanOut[i] is the scan-out length of wrapper chain i.
	ScanOut []int
	// ScanCells[i] is the number of internal scan flip-flops on chain i.
	ScanCells []int
	// InCells[i] / OutCells[i] are the wrapper input/output cells on
	// chain i.
	InCells, OutCells []int
	// MaxIn and MaxOut are the maxima of ScanIn and ScanOut.
	MaxIn, MaxOut int
	// Time is the module test time in clock cycles for this design.
	Time int64
	// Patterns echoes the module pattern count used.
	Patterns int
}

// TestTime returns the test time in cycles for per-chain scan-in/scan-out
// maxima si, so and p patterns.
func TestTime(si, so, p int) int64 {
	maxL, minL := si, so
	if maxL < minL {
		maxL, minL = minL, maxL
	}
	return int64(1+maxL)*int64(p) + int64(minL)
}

// Fit designs a wrapper for module m at TAM width w. It tries every chain
// count c in 1..w and returns the design with the smallest test time
// (ties: fewest chains). Fit panics if w < 1; use (*Designer).Fit for
// memoized access.
func Fit(m *soc.Module, w int) Design {
	if w < 1 {
		panic(fmt.Sprintf("wrapper.Fit: width %d < 1", w))
	}
	if m.Patterns == 0 {
		return Design{Width: w, Chains: 0, Time: 0}
	}
	// Beyond MaxUsefulWidth additional chains cannot help: every scan
	// chain is alone and every cell is alone.
	lengths := m.SortedChainLengths()
	times := make([]int64, min(MaxUsefulWidth(m), w))
	chainTimes(m, lengths, times)
	best := 0
	for c, t := range times {
		if t < times[best] {
			best = c
		}
	}
	d := fitChains(m, lengths, best+1)
	d.Width = w
	return d
}

// chainTimes sets times[c-1] to the test time of the design
// fitChains(m, lengths, c) builds, for c in 1..len(times), without
// building any design; lengths are the module's scan chain lengths in
// descending order. Callers give a zero-pattern module time 0 at every
// width instead, as Fit does. Only two numbers of a c-chain design decide
// its time: the longest LPT bin and the total scan load, which every
// chain count shares. waterLevel turns them into the longest scan-in and
// scan-out chain.
func chainTimes(m *soc.Module, lengths []int, times []int64) {
	total := 0
	for _, l := range lengths {
		total += l
	}
	in, out := m.InputCells(), m.OutputCells()
	bins := make([]int, len(lengths)) // LPT scratch, reused across chain counts
	for c := 1; c <= len(times); c++ {
		longest := 0
		switch {
		case c < len(lengths):
			longest = lptLongest(lengths, bins[:c])
		case len(lengths) > 0:
			longest = lengths[0] // each chain alone
		}
		times[c-1] = TestTime(waterLevel(longest, total, c, in),
			waterLevel(longest, total, c, out), m.Patterns)
	}
}

// lptLongest returns the longest bin fitChains' LPT partition builds from
// the descending lengths over len(bins) bins. Which of several equally
// loaded bins takes a chain does not change the multiset of loads, so a
// binary min-heap of loads reproduces fitChains' lowest-index argmin.
func lptLongest(lengths, bins []int) int {
	clear(bins)
	longest := 0
	for _, l := range lengths {
		bins[0] += l
		longest = max(longest, bins[0])
		// Sift the grown root down.
		for i := 0; ; {
			j := i
			if kid := 2*i + 1; kid < len(bins) && bins[kid] < bins[j] {
				j = kid
			}
			if kid := 2*i + 2; kid < len(bins) && bins[kid] < bins[j] {
				j = kid
			}
			if j == i {
				break
			}
			bins[i], bins[j] = bins[j], bins[i]
			i = j
		}
	}
	return longest
}

// waterLevel returns the longest chain after waterFill spreads n unit
// cells over c bins whose loads sum to total and peak at longest. The
// cells first fill the c·longest − total of headroom below the peak, and
// only what spills over raises the peak, evenly across all c bins.
func waterLevel(longest, total, c, n int) int {
	if spill := n - (c*longest - total); spill > 0 {
		return longest + (spill+c-1)/c
	}
	return longest
}

// FitExact designs a wrapper with exactly min(w, MaxUsefulWidth) wrapper
// chains: plain LPT partitioning without COMBINE's search over chain
// counts. This is the pre-COMBINE baseline the ablation benchmarks compare
// against; Fit dominates it by construction.
func FitExact(m *soc.Module, w int) Design {
	if w < 1 {
		panic(fmt.Sprintf("wrapper.FitExact: width %d < 1", w))
	}
	if m.Patterns == 0 {
		return Design{Width: w, Chains: 0, Time: 0}
	}
	c := MaxUsefulWidth(m)
	if c > w {
		c = w
	}
	d := fitChains(m, m.SortedChainLengths(), c)
	d.Width = w
	return d
}

// fitChains builds a wrapper with exactly c chains: LPT partition of the
// internal scan chains followed by water-filling of input and output cells.
func fitChains(m *soc.Module, sortedLengths []int, c int) Design {
	scan := make([]int, c)
	// LPT: longest chain to currently shortest bin.
	for _, l := range sortedLengths {
		argmin := 0
		for i := 1; i < c; i++ {
			if scan[i] < scan[argmin] {
				argmin = i
			}
		}
		scan[argmin] += l
	}
	in := waterFill(scan, m.InputCells())
	out := waterFill(scan, m.OutputCells())
	d := Design{
		Chains:    c,
		ScanCells: scan,
		InCells:   in,
		OutCells:  out,
		ScanIn:    make([]int, c),
		ScanOut:   make([]int, c),
		Patterns:  m.Patterns,
	}
	for i := 0; i < c; i++ {
		d.ScanIn[i] = scan[i] + in[i]
		d.ScanOut[i] = scan[i] + out[i]
		if d.ScanIn[i] > d.MaxIn {
			d.MaxIn = d.ScanIn[i]
		}
		if d.ScanOut[i] > d.MaxOut {
			d.MaxOut = d.ScanOut[i]
		}
	}
	d.Time = TestTime(d.MaxIn, d.MaxOut, m.Patterns)
	return d
}

// waterFill distributes n unit cells over bins with the given base loads so
// that the maximum (base + cells) is minimized; it returns the per-bin cell
// counts. Greedy one-at-a-time to the lowest bin is optimal for unit items.
func waterFill(base []int, n int) []int {
	cells := make([]int, len(base))
	if n == 0 {
		return cells
	}
	// Level-fill: find the final water level by sorting the base loads.
	type binLoad struct{ idx, load int }
	bins := make([]binLoad, len(base))
	for i, b := range base {
		bins[i] = binLoad{i, b}
	}
	sort.Slice(bins, func(a, b int) bool { return bins[a].load < bins[b].load })
	remaining := n
	for remaining > 0 {
		// Fill the lowest bins up to the next level (or spend all).
		low := bins[0].load
		k := 1
		for k < len(bins) && bins[k].load == low {
			k++
		}
		var target int
		if k < len(bins) {
			target = bins[k].load
		} else {
			// All equal: distribute evenly.
			q, r := remaining/len(bins), remaining%len(bins)
			for i := range bins {
				add := q
				if i < r {
					add++
				}
				cells[bins[i].idx] += add
				bins[i].load += add
			}
			return cells
		}
		need := (target - low) * k
		if need > remaining {
			q, r := remaining/k, remaining%k
			for i := 0; i < k; i++ {
				add := q
				if i < r {
					add++
				}
				cells[bins[i].idx] += add
				bins[i].load += add
			}
			return cells
		}
		for i := 0; i < k; i++ {
			cells[bins[i].idx] += target - low
			bins[i].load = target
		}
		remaining -= need
	}
	return cells
}

// Validate checks a design against its module: all scan cells and wrapper
// cells are placed, and the reported maxima/time are consistent.
func (d *Design) Validate(m *soc.Module) error {
	if m.Patterns == 0 {
		if d.Time != 0 {
			return fmt.Errorf("zero-pattern module has nonzero time %d", d.Time)
		}
		return nil
	}
	if d.Chains < 1 || d.Chains > d.Width {
		return fmt.Errorf("chain count %d outside [1,%d]", d.Chains, d.Width)
	}
	sumScan, sumIn, sumOut := 0, 0, 0
	maxIn, maxOut := 0, 0
	for i := 0; i < d.Chains; i++ {
		sumScan += d.ScanCells[i]
		sumIn += d.InCells[i]
		sumOut += d.OutCells[i]
		if d.ScanIn[i] != d.ScanCells[i]+d.InCells[i] {
			return fmt.Errorf("chain %d: ScanIn %d != scan %d + in %d",
				i, d.ScanIn[i], d.ScanCells[i], d.InCells[i])
		}
		if d.ScanOut[i] != d.ScanCells[i]+d.OutCells[i] {
			return fmt.Errorf("chain %d: ScanOut %d != scan %d + out %d",
				i, d.ScanOut[i], d.ScanCells[i], d.OutCells[i])
		}
		if d.ScanIn[i] > maxIn {
			maxIn = d.ScanIn[i]
		}
		if d.ScanOut[i] > maxOut {
			maxOut = d.ScanOut[i]
		}
	}
	if sumScan != m.ScanCells() {
		return fmt.Errorf("scan cells placed %d != module scan cells %d", sumScan, m.ScanCells())
	}
	if sumIn != m.InputCells() {
		return fmt.Errorf("input cells placed %d != module input cells %d", sumIn, m.InputCells())
	}
	if sumOut != m.OutputCells() {
		return fmt.Errorf("output cells placed %d != module output cells %d", sumOut, m.OutputCells())
	}
	if maxIn != d.MaxIn || maxOut != d.MaxOut {
		return fmt.Errorf("maxima (%d,%d) inconsistent with chains (%d,%d)",
			d.MaxIn, d.MaxOut, maxIn, maxOut)
	}
	if want := TestTime(d.MaxIn, d.MaxOut, m.Patterns); d.Time != want {
		return fmt.Errorf("time %d != expected %d", d.Time, want)
	}
	return nil
}

// MaxUsefulWidth returns the smallest width beyond which T(w) cannot
// improve: each scan chain on its own wrapper chain and each wrapper cell
// alone.
func MaxUsefulWidth(m *soc.Module) int {
	w := len(m.ScanChains) + m.InputCells()
	if alt := len(m.ScanChains) + m.OutputCells(); alt > w {
		w = alt
	}
	if w < 1 {
		w = 1
	}
	return w
}
