package tam

import (
	"fmt"
	"sort"

	"multisite/internal/ate"
	"multisite/internal/soc"
	"multisite/internal/wrapper"
)

// This file retains the straightforward implementations that the Step 1
// hot paths in tam.go were rebuilt from: per-query member-time sums over
// Designer.Time, linear width scans, and a fresh sort per widening move,
// driven through the literal one-wire-at-a-time criterion 1 squeeze.
// They are the executable specification of the optimized paths — the
// randomized equivalence tests pin DesignStep1With byte-identical to
// referenceDesignStep1With on generated SOCs — and are never called on a
// hot path.

// referenceFillAt is fillAt without the cached fill table: a member-time
// sum per query.
func (a *Architecture) referenceFillAt(g *Group, w int) int64 {
	var fill int64
	for _, mi := range g.Members {
		fill += a.Designer.Time(mi, w)
	}
	return fill
}

// referenceLocalMinimize mirrors localMinimize over the reference group
// operations.
func (a *Architecture) referenceLocalMinimize() {
	a.referenceShrinkAll()
	for {
		if a.referenceMergeOnce() {
			continue
		}
		if a.referenceMoveOnce() {
			continue
		}
		return
	}
}

func (a *Architecture) referenceShrinkAll() {
	for _, g := range a.Groups {
		for g.Width > 1 && a.referenceFillAt(g, g.Width-1) <= a.Depth {
			g.Width--
		}
		a.refit(g)
	}
}

func (a *Architecture) referenceMergeOnce() bool {
	bestI, bestJ := -1, -1
	var bestFill int64
	for i := 0; i < len(a.Groups); i++ {
		for j := i + 1; j < len(a.Groups); j++ {
			gi, gj := a.Groups[i], a.Groups[j]
			w := gi.Width
			if gj.Width > w {
				w = gj.Width
			}
			fill := a.referenceFillAt(gi, w) + a.referenceFillAt(gj, w)
			if fill > a.Depth {
				continue
			}
			if bestI < 0 || fill < bestFill {
				bestI, bestJ, bestFill = i, j, fill
			}
		}
	}
	if bestI < 0 {
		return false
	}
	gi, gj := a.Groups[bestI], a.Groups[bestJ]
	if gj.Width > gi.Width {
		gi.Width = gj.Width
	}
	gi.Members = append(gi.Members, gj.Members...)
	gi.Times = append(gi.Times, gj.Times...)
	a.Groups = append(a.Groups[:bestJ], a.Groups[bestJ+1:]...)
	a.refit(gi)
	// The merged group may now shrink below the wider width.
	for gi.Width > 1 && a.referenceFillAt(gi, gi.Width-1) <= a.Depth {
		gi.Width--
	}
	a.refit(gi)
	return true
}

func (a *Architecture) referenceMoveOnce() bool {
	for gi, g := range a.Groups {
		for idx, mi := range g.Members {
			for gj, h := range a.Groups {
				if gi == gj {
					continue
				}
				t := a.Designer.Time(mi, h.Width)
				if h.Fill+t > a.Depth {
					continue
				}
				// Donor width after losing the member, by linear scan.
				rest := append([]int(nil), g.Members[:idx]...)
				rest = append(rest, g.Members[idx+1:]...)
				newW := 0
				if len(rest) > 0 {
					newW = g.Width
					for newW > 1 {
						var fill int64
						for _, r := range rest {
							fill += a.Designer.Time(r, newW-1)
						}
						if fill > a.Depth {
							break
						}
						newW--
					}
				}
				if newW >= g.Width {
					continue // no wires saved
				}
				// Accept: move mi into h, shrink or delete g.
				h.Members = append(h.Members, mi)
				h.Times = append(h.Times, t)
				h.Fill += t
				if len(rest) == 0 {
					a.Groups = append(a.Groups[:gi], a.Groups[gi+1:]...)
				} else {
					g.Members = rest
					g.Times = make([]int64, len(rest))
					g.Width = newW
					a.refit(g)
				}
				return true
			}
		}
	}
	return false
}

// referenceWidenOnce is WidenOnce with an explicit sort per move. The
// stable sort over the identity permutation realizes the same
// deterministic (fill descending, index ascending) order as the
// selection loop in WidenOnce.
func (a *Architecture) referenceWidenOnce() bool {
	order := make([]int, len(a.Groups))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return a.Groups[order[x]].Fill > a.Groups[order[y]].Fill
	})
	for _, gi := range order {
		g := a.Groups[gi]
		if a.referenceFillAt(g, g.Width+1) < g.Fill {
			g.Width++
			a.refit(g)
			return true
		}
	}
	return false
}

// referencePlace is place with linear scans: every candidate fill is a
// fresh member-time sum, and the minimal feasible widening of each group
// is found by trying one extra wire at a time.
func (a *Architecture) referencePlace(mi, wmin, maxWires int, rule OptionRule, choice placeChoice) error {
	bestG := -1
	var bestT, bestKey int64
	for gi, g := range a.Groups {
		t := a.Designer.Time(mi, g.Width)
		if g.Fill+t > a.Depth {
			continue
		}
		key := t
		if choice == bestFit {
			key = a.Depth - (g.Fill + t) // remaining slack
		}
		if bestG < 0 || key < bestKey {
			bestG, bestT, bestKey = gi, t, key
		}
	}
	if bestG >= 0 {
		g := a.Groups[bestG]
		g.Members = append(g.Members, mi)
		g.Times = append(g.Times, bestT)
		g.Fill += bestT
		return nil
	}

	used := a.Wires()
	type option struct {
		group int // -1 for a new group
		extra int // wires added
		free  int64
	}
	var candidates []option

	if used+wmin <= maxWires {
		newFill := a.Designer.Time(mi, wmin)
		free := a.FreeMemory() + int64(wmin)*(a.Depth-newFill)
		candidates = append(candidates, option{group: -1, extra: wmin, free: free})
	}
	for gi, g := range a.Groups {
		for e := 1; used+e <= maxWires; e++ {
			w := g.Width + e
			fill := a.referenceFillAt(g, w) + a.Designer.Time(mi, w)
			if fill > a.Depth {
				continue
			}
			// Feasible extension found (fills are non-increasing
			// in width, so the first e that fits is minimal).
			free := a.FreeMemory() - int64(g.Width)*(a.Depth-g.Fill) +
				int64(w)*(a.Depth-fill)
			candidates = append(candidates, option{group: gi, extra: e, free: free})
			break
		}
	}
	if len(candidates) == 0 {
		return fmt.Errorf("soc %s cannot be tested on the target ATE: module %d needs more than the %d available wires",
			a.SOC.Name, a.SOC.Modules[mi].ID, maxWires)
	}

	chosen := candidates[0]
	switch rule {
	case RuleAlwaysNewGroup:
		for _, c := range candidates {
			if c.group == -1 {
				chosen = c
				break
			}
		}
		if chosen.group != -1 {
			for _, c := range candidates[1:] {
				if c.extra < chosen.extra {
					chosen = c
				}
			}
		}
	case RulePreferWiden:
		found := false
		for _, c := range candidates {
			if c.group >= 0 && (!found || c.extra < chosen.extra ||
				(c.extra == chosen.extra && c.free > chosen.free)) {
				chosen = c
				found = true
			}
		}
		if !found {
			chosen = candidates[0]
		}
	default: // RuleMaxFreeMemory, the paper's rule.
		for _, c := range candidates[1:] {
			if c.free > chosen.free ||
				(c.free == chosen.free && c.extra < chosen.extra) {
				chosen = c
			}
		}
	}

	if chosen.group == -1 {
		g := &Group{Width: wmin}
		t := a.Designer.Time(mi, wmin)
		g.Members = []int{mi}
		g.Times = []int64{t}
		g.Fill = t
		a.Groups = append(a.Groups, g)
		return nil
	}
	g := a.Groups[chosen.group]
	g.Width += chosen.extra
	a.refit(g)
	g.Members = append(g.Members, mi)
	g.Times = append(g.Times, a.Designer.Time(mi, g.Width))
	g.Fill += g.Times[len(g.Times)-1]
	return nil
}

// sortOrder selects the module processing order of one reference
// restart.
type sortOrder int

const (
	byMinWidth sortOrder = iota // the paper's decreasing k_min(m)
	byMinArea                   // decreasing irreducible test volume
	byMinTime                   // decreasing test time at k_min
)

// referenceDesignOnce is one greedy run as it was before the set-up was
// shared: validation, minimum widths, keys and a sort per run, then the
// reference place and local-minimize operations.
func referenceDesignOnce(s *soc.SOC, target ate.ATE, opts Options, order sortOrder, choice placeChoice) (*Architecture, error) {
	maxWires := opts.MaxWires
	if maxWires <= 0 {
		maxWires = target.Channels / 2
	}
	modules, wmin, err := referenceOrder(s, target, maxWires, order)
	if err != nil {
		return nil, err
	}
	a := &Architecture{SOC: s, Designer: wrapper.For(s), Depth: target.Depth}
	for _, mi := range modules {
		if err := a.referencePlace(mi, wmin[mi], maxWires, opts.Rule, choice); err != nil {
			return nil, err
		}
	}
	a.referenceLocalMinimize()
	return a, nil
}

// referenceOrder is the set-up every reference run repeats: it validates
// the inputs, finds each testable module's minimum width under the cap,
// and sorts the modules by the order's key.
func referenceOrder(s *soc.SOC, target ate.ATE, maxWires int, order sortOrder) ([]int, map[int]int, error) {
	if err := target.Validate(); err != nil {
		return nil, nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	d := wrapper.For(s)
	modules := s.TestableModules()
	if len(modules) == 0 {
		return nil, nil, fmt.Errorf("soc %s: no testable modules", s.Name)
	}

	wmin := make(map[int]int, len(modules))
	for _, mi := range modules {
		w, ok := d.MinWidth(mi, target.Depth, maxWires)
		if !ok {
			return nil, nil, fmt.Errorf("soc %s: module %d (%s) cannot be tested within depth %d on %d wires",
				s.Name, s.Modules[mi].ID, s.Modules[mi].Name, target.Depth, maxWires)
		}
		wmin[mi] = w
	}

	key := func(mi int) int64 {
		switch order {
		case byMinArea:
			var best int64 = -1
			for w := 1; w <= maxWires && w <= d.MaxWidthTable(mi); w++ {
				if t := d.Time(mi, w); t <= target.Depth {
					if area := int64(w) * t; best < 0 || area < best {
						best = area
					}
				}
			}
			return best
		case byMinTime:
			return d.Time(mi, wmin[mi])
		default:
			return int64(wmin[mi])
		}
	}
	keys := make(map[int]int64, len(modules))
	for _, mi := range modules {
		keys[mi] = key(mi)
	}
	sort.SliceStable(modules, func(x, y int) bool {
		a, b := modules[x], modules[y]
		if keys[a] != keys[b] {
			return keys[a] > keys[b]
		}
		if wmin[a] != wmin[b] {
			return wmin[a] > wmin[b]
		}
		ta, tb := d.Time(a, wmin[a]), d.Time(b, wmin[b])
		if ta != tb {
			return ta > tb
		}
		return a < b
	})
	return modules, wmin, nil
}

// referenceDesignPortfolio mirrors chip.portfolio over
// referenceDesignOnce.
func referenceDesignPortfolio(s *soc.SOC, target ate.ATE, opts Options) (*Architecture, error) {
	if opts.SinglePass {
		return referenceDesignOnce(s, target, opts, byMinWidth, smallestAddedDepth)
	}
	orders := []sortOrder{byMinWidth, byMinArea, byMinTime}
	choices := []placeChoice{smallestAddedDepth, bestFit}
	var best *Architecture
	var firstErr error
	for _, order := range orders {
		for _, choice := range choices {
			a, err := referenceDesignOnce(s, target, opts, order, choice)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if best == nil || a.Wires() < best.Wires() ||
				(a.Wires() == best.Wires() && a.TestCycles() < best.TestCycles()) {
				best = a
			}
		}
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}

// referenceDesignStep1With is the full reference Step 1: the restart
// portfolio followed by the literal criterion 1 squeeze, rerunning the
// portfolio under a cap one wire below the current result until the
// greedy can no longer fit.
func referenceDesignStep1With(s *soc.SOC, target ate.ATE, opts Options) (*Architecture, error) {
	best, err := referenceDesignPortfolio(s, target, opts)
	if err != nil || opts.NoSqueeze {
		return best, err
	}
	for {
		tight := opts
		tight.MaxWires = best.Wires() - 1
		if tight.MaxWires < 1 {
			return best, nil
		}
		next, err := referenceDesignPortfolio(s, target, tight)
		if err != nil {
			return best, nil
		}
		if next.Wires() >= best.Wires() {
			return best, nil
		}
		best = next
	}
}
