// Package pareto computes Pareto-optimal width/test-time trade-off points
// for wrapped modules and the theoretical lower bound on ATE channel count
// from Iyengar, Goel, Chakrabarty, and Marinissen, "Test Resource
// Optimization for Multi-Site Testing of SOCs Under ATE Memory Depth
// Constraints" (ITC 2002) — reference [7] of the reproduced paper.
//
// A module's test at TAM width w occupies a rectangle of width w (wires)
// and height T(w) (cycles of vector memory). Only Pareto-optimal points —
// widths at which T strictly decreases — matter for packing and for lower
// bounds.
package pareto

import (
	"multisite/internal/soc"
	"multisite/internal/wrapper"
)

// Point is one Pareto-optimal (width, time) pair of a module.
type Point struct {
	// Width is the TAM width in wires.
	Width int
	// Time is the module test time in clock cycles at that width.
	Time int64
}

// Points returns the Pareto-optimal points of module mi under the designer,
// considering widths 1..maxW, in increasing width order. The first point is
// width 1; each subsequent point strictly reduces the time.
func Points(d *wrapper.Designer, mi, maxW int) []Point {
	var pts []Point
	tt := d.TimeTable(mi)
	top := len(tt)
	if top > maxW {
		top = maxW
	}
	var last int64 = -1
	for w := 1; w <= top; w++ {
		t := tt[w-1]
		if last < 0 || t < last {
			pts = append(pts, Point{Width: w, Time: t})
			last = t
		}
	}
	return pts
}

// MinArea returns the minimum rectangle area (wires × cycles) over all
// Pareto points of module mi with widths ≤ maxW. This is the module's
// irreducible claim on ATE vector memory capacity.
func MinArea(d *wrapper.Designer, mi, maxW int) int64 {
	var best int64 = -1
	for _, p := range Points(d, mi, maxW) {
		a := int64(p.Width) * p.Time
		if best < 0 || a < best {
			best = a
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// MinAreaWithin returns the minimum rectangle area over Pareto points whose
// time fits within depth, or ok=false if no width ≤ maxW fits.
func MinAreaWithin(d *wrapper.Designer, mi, maxW int, depth int64) (int64, bool) {
	var best int64 = -1
	for _, p := range Points(d, mi, maxW) {
		if p.Time > depth {
			continue
		}
		a := int64(p.Width) * p.Time
		if best < 0 || a < best {
			best = a
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// LowerBoundWires returns the theoretical lower bound of [7] on the number
// of TAM wires W needed to test the SOC within vector memory depth (cycles
// per channel): the larger of
//
//   - the total-volume bound ⌈Σ_m minArea(m) / depth⌉, where minArea only
//     considers widths whose time fits within depth, and
//   - the per-module bound max_m minWidth(m, depth)
//
// ok=false means some module cannot fit the depth at any width ≤ maxW.
func LowerBoundWires(d *wrapper.Designer, depth int64, maxW int) (int, bool) {
	modules := d.Modules()
	var area int64
	maxMin := 0
	for mi := range modules {
		if !modules[mi].IsTestable() {
			continue
		}
		a, ok := MinAreaWithin(d, mi, maxW, depth)
		if !ok {
			return 0, false
		}
		area += a
		w, ok := d.MinWidth(mi, depth, maxW)
		if !ok {
			return 0, false
		}
		if w > maxMin {
			maxMin = w
		}
	}
	lb := int((area + depth - 1) / depth)
	if lb < maxMin {
		lb = maxMin
	}
	if lb < 1 {
		lb = 1
	}
	return lb, true
}

// LowerBoundChannels returns the lower bound in ATE channels (2 channels
// per TAM wire, so always even).
func LowerBoundChannels(d *wrapper.Designer, depth int64, maxW int) (int, bool) {
	w, ok := LowerBoundWires(d, depth, maxW)
	return 2 * w, ok
}

// TotalMinArea sums the per-module minimum areas (unconstrained by depth);
// a convenient size metric for an SOC.
func TotalMinArea(s *soc.SOC) int64 {
	d := wrapper.NewDesigner(s)
	return totalMinArea(d, s)
}

func totalMinArea(d *wrapper.Designer, s *soc.SOC) int64 {
	var area int64
	for _, mi := range s.TestableModules() {
		area += MinArea(d, mi, d.MaxWidthTable(mi))
	}
	return area
}
