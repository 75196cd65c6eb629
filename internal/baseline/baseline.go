// Package baseline implements the comparison method of the reproduced
// paper: the rectangle bin-packing test-architecture design of Iyengar,
// Goel, Chakrabarty, and Marinissen, "Test Resource Optimization for
// Multi-Site Testing of SOCs Under ATE Memory Depth Constraints"
// (ITC 2002) — reference [7].
//
// Each module's test at TAM width w is a rectangle of width w wires and
// height T(w) cycles. The method packs one rectangle per module into a bin
// of width W wires and height D cycles (the ATE vector memory), growing W
// from the theoretical lower bound until the packing fits; the result is
// the minimum channel count k = 2W the packer can achieve, which in [7]
// maximizes the number of multi-sites. Packing uses a skyline best-fit
// heuristic over the modules in decreasing minimum-area order, trying every
// Pareto-optimal width for each rectangle.
package baseline

import (
	"context"
	"fmt"
	"sort"

	"multisite/internal/ate"
	"multisite/internal/pareto"
	"multisite/internal/soc"
	"multisite/internal/wrapper"
)

// Placement records where one module's rectangle landed.
type Placement struct {
	// Module is the index into the SOC's Modules slice.
	Module int
	// Wire is the first TAM wire (column) of the rectangle.
	Wire int
	// Width is the rectangle width in wires.
	Width int
	// Start is the first cycle (row) of the rectangle.
	Start int64
	// Time is the rectangle height in cycles.
	Time int64
}

// Packing is a feasible rectangle packing of all testable modules.
type Packing struct {
	// SOC is the chip packed.
	SOC *soc.SOC
	// Wires is the bin width W; the channel count is 2W.
	Wires int
	// Depth is the bin height D in cycles.
	Depth int64
	// Placements lists one rectangle per testable module.
	Placements []Placement
}

// Channels returns the ATE channel count k = 2·Wires.
func (p *Packing) Channels() int { return 2 * p.Wires }

// Design packs the SOC's module tests into the target ATE's vector memory
// with as few TAM wires as possible, mirroring [7]: start at the
// theoretical lower bound and grow the bin width until the skyline packer
// fits everything. The context is polled before each bin-width attempt
// (one full skyline packing per width), so a cancelled caller abandons
// the width escalation promptly; a cancelled design returns the
// context's error and no partial packing.
func Design(ctx context.Context, s *soc.SOC, target ate.ATE) (*Packing, error) {
	if err := target.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	maxWires := target.Channels / 2
	d := wrapper.For(s)
	lb, ok := pareto.LowerBoundWires(d, target.Depth, maxWires)
	if !ok {
		return nil, fmt.Errorf("soc %s: some module cannot fit depth %d on %d wires",
			s.Name, target.Depth, maxWires)
	}
	for w := lb; w <= maxWires; w++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if pk := tryPack(d, s, w, target.Depth); pk != nil {
			return pk, nil
		}
	}
	return nil, fmt.Errorf("soc %s cannot be packed into %d wires at depth %d",
		s.Name, maxWires, target.Depth)
}

// tryPack attempts a skyline packing into a bin of the given wires × depth;
// nil means failure.
func tryPack(d *wrapper.Designer, s *soc.SOC, wires int, depth int64) *Packing {
	modules := s.TestableModules()
	// Pack larger modules first: decreasing minimum area, the classic
	// bin-packing order of [7]. Areas are computed once per module, not
	// once per sort comparison.
	area := make(map[int]int64, len(modules))
	for _, mi := range modules {
		area[mi] = pareto.MinArea(d, mi, wires)
	}
	sort.SliceStable(modules, func(a, b int) bool {
		if area[modules[a]] != area[modules[b]] {
			return area[modules[a]] > area[modules[b]]
		}
		return modules[a] < modules[b]
	})

	// skyline[c] is the first free cycle on wire c.
	skyline := make([]int64, wires)
	pk := &Packing{SOC: s, Wires: wires, Depth: depth}
	for _, mi := range modules {
		pts := pareto.Points(d, mi, wires)
		bestWaste := int64(-1)
		var best Placement
		for _, pt := range pts {
			if pt.Time > depth {
				continue
			}
			// Slide a window of pt.Width wires across the bin;
			// the rectangle sits at the window's max skyline.
			for c := 0; c+pt.Width <= wires; c++ {
				start := skyline[c]
				for x := c + 1; x < c+pt.Width; x++ {
					if skyline[x] > start {
						start = skyline[x]
					}
				}
				if start+pt.Time > depth {
					continue
				}
				// Waste: area trapped below the rectangle plus
				// a mild preference for lower placements.
				var trapped int64
				for x := c; x < c+pt.Width; x++ {
					trapped += start - skyline[x]
				}
				waste := trapped + start/4
				if bestWaste < 0 || waste < bestWaste {
					bestWaste = waste
					best = Placement{Module: mi, Wire: c, Width: pt.Width,
						Start: start, Time: pt.Time}
				}
			}
		}
		if bestWaste < 0 {
			return nil
		}
		for x := best.Wire; x < best.Wire+best.Width; x++ {
			skyline[x] = best.Start + best.Time
		}
		pk.Placements = append(pk.Placements, best)
	}
	return pk
}

// LowerBoundChannels re-exports the theoretical channel-count lower bound
// of [7] for reporting alongside packing results.
func LowerBoundChannels(s *soc.SOC, target ate.ATE) (int, bool) {
	return pareto.LowerBoundChannels(wrapper.For(s), target.Depth, target.Channels/2)
}
