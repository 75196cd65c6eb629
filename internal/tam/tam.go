// Package tam implements the on-chip test access mechanism (TAM)
// architecture model of the reproduced paper and its Step 1 design
// algorithm (Section 6).
//
// The architecture is a set of channel groups: fixed-width test buses that
// operate concurrently. The modules assigned to one group are tested
// sequentially over that group's wires, so the group's vector memory fill
// is the sum of its members' wrapped test times, and the SOC test length is
// the maximum fill over all groups. One TAM wire consumes two ATE channels
// (stimulus in + response out through the E-RPCT interface), so the SOC's
// channel count k = 2·ΣWidth is always even.
package tam

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"multisite/internal/ate"
	"multisite/internal/soc"
	"multisite/internal/wrapper"
)

// Group is one channel group: a test bus of Width TAM wires whose member
// modules are tested one after another.
type Group struct {
	// Width is the group's TAM width in wires.
	Width int
	// Members are indices into the SOC's Modules slice, in test order.
	Members []int
	// Times[i] is the wrapped test time in cycles of Members[i] at the
	// current Width.
	Times []int64
	// Fill is the vector memory depth the group consumes: ΣTimes.
	Fill int64
}

// atWidth indexes a non-increasing per-width wrapper time table,
// saturating beyond its length.
func atWidth(t []int64, w int) int64 {
	if w > len(t) {
		w = len(t)
	}
	return t[w-1]
}

// minFeasible returns the smallest value in [lo, hi] satisfying fits.
// It requires fits to be monotone — false up to some threshold, true
// from there on, which non-increasing member times guarantee for width
// (and width-extension) searches — and fits(hi) to be true.
func minFeasible(lo, hi int, fits func(w int) bool) int {
	for lo < hi {
		mid := (lo + hi) / 2
		if fits(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// addMember appends module mi, whose test time at the group's current
// width is t.
func (g *Group) addMember(mi int, t int64) {
	g.Members = append(g.Members, mi)
	g.Times = append(g.Times, t)
	g.Fill += t
}

// removeMemberAt deletes the idx-th member.
func (g *Group) removeMemberAt(idx int) {
	g.Fill -= g.Times[idx]
	g.Members = append(g.Members[:idx], g.Members[idx+1:]...)
	g.Times = append(g.Times[:idx], g.Times[idx+1:]...)
}

// Architecture is a complete channel-group assignment for an SOC against a
// vector memory depth.
type Architecture struct {
	// SOC is the chip the architecture was designed for.
	SOC *soc.SOC
	// Designer is the memoized wrapper designer shared by all queries.
	Designer *wrapper.Designer
	// Depth is the ATE vector memory depth per channel, in cycles.
	Depth int64
	// Groups is the set of channel groups.
	Groups []*Group
}

// Wires returns the total TAM wires ΣWidth.
func (a *Architecture) Wires() int {
	n := 0
	for _, g := range a.Groups {
		n += g.Width
	}
	return n
}

// Channels returns the ATE channel count k = 2·Wires (always even).
func (a *Architecture) Channels() int { return 2 * a.Wires() }

// TestCycles returns the SOC test length in cycles: the maximum group fill.
func (a *Architecture) TestCycles() int64 {
	var n int64
	for _, g := range a.Groups {
		if g.Fill > n {
			n = g.Fill
		}
	}
	return n
}

// FreeMemory returns the total unused vector memory over all used channels,
// in wire·cycles: Σ Width·(Depth − Fill).
func (a *Architecture) FreeMemory() int64 {
	var n int64
	for _, g := range a.Groups {
		n += int64(g.Width) * (a.Depth - g.Fill)
	}
	return n
}

// refit recomputes a group's member times and fill at its current width.
func (a *Architecture) refit(g *Group) {
	g.Fill = 0
	for i, mi := range g.Members {
		t := atWidth(a.Designer.TimeTable(mi), g.Width)
		g.Times[i] = t
		g.Fill += t
	}
}

// fillAt returns the group's fill if its width were w, without mutating
// it: the sum of its members' times at w, non-increasing in w.
func (a *Architecture) fillAt(g *Group, w int) int64 {
	if w == g.Width {
		return g.Fill
	}
	var fill int64
	for _, mi := range g.Members {
		fill += atWidth(a.Designer.TimeTable(mi), w)
	}
	return fill
}

// Clone deep-copies the architecture. The SOC and Designer are shared
// (both are read-only caches for architecture purposes). The copy's
// groups, members and times are three blocks, not three allocations per
// group; each group's slices are capped at their length, so an append to
// one group reallocates instead of writing into the next group's part.
func (a *Architecture) Clone() *Architecture {
	out := &Architecture{SOC: a.SOC, Designer: a.Designer, Depth: a.Depth}
	n := 0
	for _, g := range a.Groups {
		n += len(g.Members)
	}
	groups := make([]Group, len(a.Groups))
	members := make([]int, 0, n)
	times := make([]int64, 0, n)
	out.Groups = make([]*Group, len(a.Groups))
	for i, g := range a.Groups {
		lo := len(members)
		members = append(members, g.Members...)
		times = append(times, g.Times...)
		hi := len(members)
		groups[i] = Group{Width: g.Width, Members: members[lo:hi:hi], Times: times[lo:hi:hi], Fill: g.Fill}
		out.Groups[i] = &groups[i]
	}
	return out
}

// WithWidths returns a copy of a whose group i is widths[i] wires wide,
// its member times and fill refitted at that width. Widening (WidenOnce)
// changes only widths, so this rebuilds any architecture widening a
// leads to from its widths alone.
func (a *Architecture) WithWidths(widths []int) *Architecture {
	out := a.Clone()
	for i, g := range out.Groups {
		g.Width = widths[i]
		out.refit(g)
	}
	return out
}

// Validate checks the architecture: every testable module assigned exactly
// once, group fills consistent and within depth.
func (a *Architecture) Validate() error {
	assigned := make(map[int]int)
	for gi, g := range a.Groups {
		if g.Width < 1 {
			return fmt.Errorf("group %d: non-positive width %d", gi, g.Width)
		}
		if len(g.Members) != len(g.Times) {
			return fmt.Errorf("group %d: %d members but %d times", gi, len(g.Members), len(g.Times))
		}
		var fill int64
		for i, mi := range g.Members {
			if prev, dup := assigned[mi]; dup {
				return fmt.Errorf("module %d assigned to groups %d and %d", mi, prev, gi)
			}
			assigned[mi] = gi
			want := a.Designer.Time(mi, g.Width)
			if g.Times[i] != want {
				return fmt.Errorf("group %d member %d: time %d != designed %d", gi, mi, g.Times[i], want)
			}
			fill += g.Times[i]
		}
		if fill != g.Fill {
			return fmt.Errorf("group %d: fill %d != sum of times %d", gi, g.Fill, fill)
		}
		if fill > a.Depth {
			return fmt.Errorf("group %d: fill %d exceeds depth %d", gi, fill, a.Depth)
		}
	}
	for _, mi := range a.SOC.TestableModules() {
		if _, ok := assigned[mi]; !ok {
			return fmt.Errorf("testable module %d not assigned to any group", mi)
		}
	}
	return nil
}

// OptionRule selects how Step 1 resolves the case where a module fits no
// existing group: the paper's rule compares creating a new group against
// widening an existing one by the resulting total free memory; the other
// rules are ablations.
type OptionRule int

const (
	// RuleMaxFreeMemory is the paper's rule: choose the option that
	// maximizes total free vector memory over all used channels.
	RuleMaxFreeMemory OptionRule = iota
	// RuleAlwaysNewGroup always opens a new channel group.
	RuleAlwaysNewGroup
	// RulePreferWiden widens an existing group whenever feasible, and
	// opens a new group only as a last resort.
	RulePreferWiden
)

// Options tunes the Step 1 design.
type Options struct {
	// Rule is the option-selection rule (default: the paper's
	// RuleMaxFreeMemory).
	Rule OptionRule `json:"rule"`
	// MaxWires caps the total TAM wires; 0 means Channels/2 of the ATE.
	MaxWires int `json:"max_wires"`
	// NoSqueeze disables the minimal-channel squeeze: by default,
	// Step 1 re-runs the greedy under progressively tighter wire caps
	// until infeasible, implementing the paper's "criterion 1 (minimize
	// k) has priority" at full strength. A tighter cap prunes wide
	// options and forces the greedy into denser packings it would not
	// otherwise pick.
	NoSqueeze bool `json:"no_squeeze"`
	// SinglePass disables the restart portfolio and uses only the
	// paper's literal heuristic (modules sorted by decreasing minimum
	// width, groups chosen by smallest added depth). By default Step 1
	// also tries alternative module orders and a best-fit group choice
	// and keeps the architecture with the fewest channels.
	SinglePass bool `json:"single_pass"`
}

// placeChoice selects how a module picks among fitting groups.
type placeChoice int

const (
	// smallestAddedDepth is the paper's rule: the group where the
	// module's own test needs the least vector memory.
	smallestAddedDepth placeChoice = iota
	// bestFit picks the fitting group whose remaining slack after the
	// module is smallest, packing groups densely.
	bestFit
)

// DesignStep1 runs the paper's Step 1 with default options: it builds the
// channel-group architecture that (criterion 1) minimizes the SOC's ATE
// channel count and (criterion 2) minimizes the vector memory fill, so
// that the maximum number of sites can be tested in parallel.
func DesignStep1(s *soc.SOC, target ate.ATE) (*Architecture, error) {
	return DesignStep1With(s, target, Options{})
}

// DesignStep1With runs Step 1 with explicit options.
func DesignStep1With(s *soc.SOC, target ate.ATE, opts Options) (*Architecture, error) {
	c, err := prepare(s, target)
	if err != nil {
		return nil, err
	}
	best, err := c.portfolio(opts)
	if err != nil || opts.NoSqueeze {
		return best, err
	}
	// Criterion 1 squeeze: rerun the greedy under a cap one wire below
	// the current result until it can no longer fit, implementing the
	// paper's "criterion 1 (minimize k) has priority" at full strength.
	// The walk is deliberately one wire at a time: the greedy's output
	// depends on the cap value itself (the cap prunes widening options in
	// place and the area order's keys), so probing caps this walk
	// would never visit — e.g. binary-searching for the tightest feasible
	// cap — can return a different, occasionally worse, architecture
	// (TestStep1MatchesReference covers seeds where it does). Each rerun
	// shares the chip's set-up and binary-searches its widths over the
	// flat time tables, so the walk costs a small multiple of one
	// portfolio's placements.
	// Ties on channels keep the earlier (lower-fill) architecture.
	for {
		tight := opts
		tight.MaxWires = best.Wires() - 1
		if tight.MaxWires < 1 {
			return best, nil
		}
		next, err := c.portfolio(tight)
		if err != nil {
			return best, nil
		}
		if next.Wires() >= best.Wires() {
			return best, nil
		}
		best = next
	}
}

// chip is the set-up that every greedy run of one DesignStep1With call
// shares — the restart portfolio's runs and every squeeze pass's: the
// validated inputs, the testable modules with their cap-free minimum
// widths and the times there, and the cap-free module orders. A run
// itself only places modules and runs localMinimize.
type chip struct {
	soc    *soc.SOC
	d      *wrapper.Designer
	target ate.ATE
	// modules are the testable module indices, ascending.
	modules []int
	// wmin[mi] is the smallest width at which module mi tests within the
	// depth on any number of wires, or 0 when no width does; tmin[mi] is
	// its test time there. A cap admits the module iff wmin[mi] is
	// nonzero and within it, and then wmin[mi] is its minimum width under
	// that cap too, since the time tables are non-increasing.
	wmin []int
	tmin []int64
	// byWidth is the paper's module order, decreasing minimum width;
	// byTime, a restart's, is decreasing test time at it. Neither key
	// depends on the cap. The third restart order, decreasing area, does
	// (the cap bounds the widths its key ranges over), so byArea builds
	// it per portfolio pass.
	byWidth, byTime []int
	// tables and options are place's scratch, reused by every placement
	// of every greedy run: one group's member time tables, and the
	// options for a module that fits no group. They live here, not in
	// the Architecture, so no design the caches keep pins them.
	tables  [][]int64
	options []placeOption
	// run is the greedy run in progress and best the pass's best run so
	// far; a run that beats best trades places with it, and a pass
	// returns a Clone of best. Runs build them in place, so every run
	// after the first few reuses their groups' member and time slices.
	run, best *scratch
}

// scratch is an architecture a greedy run builds in place, with the
// groups it can open: at most one per testable module, since each new
// group takes one. reset keeps every group's member and time slices, so
// the next run appends into them.
type scratch struct {
	Architecture
	pool []Group
	used int // pool[:used] are this run's groups
}

// newScratch returns an empty scratch architecture for c.
func (c *chip) newScratch() *scratch {
	return &scratch{
		Architecture: Architecture{SOC: c.soc, Designer: c.d, Depth: c.target.Depth},
		pool:         make([]Group, len(c.modules)),
	}
}

// reset empties the architecture for a new run.
func (a *scratch) reset() {
	a.Groups = a.Groups[:0]
	a.used = 0
}

// openGroup appends a new group of the given width holding module mi,
// whose test time there is t, to the architecture.
func (a *scratch) openGroup(width, mi int, t int64) {
	g := &a.pool[a.used]
	a.used++
	g.Width, g.Members, g.Times, g.Fill = width, g.Members[:0], g.Times[:0], 0
	g.addMember(mi, t)
	a.Groups = append(a.Groups, g)
}

// prepare validates the inputs and builds the shared set-up.
func prepare(s *soc.SOC, target ate.ATE) (*chip, error) {
	if err := target.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := &chip{soc: s, d: wrapper.For(s), target: target, modules: s.TestableModules()}
	if len(c.modules) == 0 {
		return nil, fmt.Errorf("soc %s: no testable modules", s.Name)
	}
	c.wmin = make([]int, len(s.Modules))
	c.tmin = make([]int64, len(s.Modules))
	for _, mi := range c.modules {
		if w, ok := c.d.MinWidth(mi, target.Depth, wrapper.MaxTableWidth); ok {
			c.wmin[mi], c.tmin[mi] = w, c.d.Time(mi, w)
		}
	}
	c.byWidth = sortedBy(c, c.wmin)
	c.byTime = sortedBy(c, c.tmin)
	c.run, c.best = c.newScratch(), c.newScratch()
	return c, nil
}

// sortedBy returns the testable modules in one restart's processing
// order: decreasing key[mi], ties falling back to decreasing minimum
// width, then decreasing time at it, and finally the index, so the order
// is total and deterministic.
func sortedBy[K cmp.Ordered](c *chip, key []K) []int {
	order := append([]int(nil), c.modules...)
	slices.SortFunc(order, func(a, b int) int {
		if key[a] != key[b] {
			return cmp.Compare(key[b], key[a])
		}
		if c.wmin[a] != c.wmin[b] {
			return cmp.Compare(c.wmin[b], c.wmin[a])
		}
		if c.tmin[a] != c.tmin[b] {
			return cmp.Compare(c.tmin[b], c.tmin[a])
		}
		return cmp.Compare(a, b)
	})
	return order
}

// byArea returns the area order under a wire cap every module fits:
// decreasing irreducible test volume, the smallest w·time(w) over the
// widths within the cap that fit the depth. Widths below wmin[mi] never
// fit, so the scan starts there.
func (c *chip) byArea(maxWires int) []int {
	area := make([]int64, len(c.soc.Modules))
	for _, mi := range c.modules {
		tt := c.d.TimeTable(mi)
		top := min(len(tt), maxWires)
		best := int64(c.wmin[mi]) * c.tmin[mi]
		for w := c.wmin[mi] + 1; w <= top; w++ {
			if a := int64(w) * tt[w-1]; a < best {
				best = a
			}
		}
		area[mi] = best
	}
	return sortedBy(c, area)
}

// portfolio runs the greedy under one or several (order, choice)
// strategies and returns a copy of the architecture with the fewest
// wires (ties: smallest test length, then the earlier strategy). The
// orders are byWidth, byArea and byTime, each run with both choices;
// SinglePass runs the paper's byWidth with the smallest added depth
// only. A cap that some module's minimum width exceeds fails every
// strategy alike, so it fails the pass up front.
func (c *chip) portfolio(opts Options) (*Architecture, error) {
	maxWires := opts.MaxWires
	if maxWires <= 0 {
		maxWires = c.target.Channels / 2
	}
	for _, mi := range c.modules {
		if w := c.wmin[mi]; w == 0 || w > maxWires {
			m := &c.soc.Modules[mi]
			return nil, fmt.Errorf("soc %s: module %d (%s) cannot be tested within depth %d on %d wires",
				c.soc.Name, m.ID, m.Name, c.target.Depth, maxWires)
		}
	}
	if opts.SinglePass {
		if err := c.designOnce(c.byWidth, maxWires, opts.Rule, smallestAddedDepth); err != nil {
			return nil, err
		}
		return c.run.Clone(), nil
	}
	found := false
	var firstErr error
	for _, order := range [...][]int{c.byWidth, c.byArea(maxWires), c.byTime} {
		for _, choice := range [...]placeChoice{smallestAddedDepth, bestFit} {
			if err := c.designOnce(order, maxWires, opts.Rule, choice); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			a, best := c.run, c.best
			if !found || a.Wires() < best.Wires() ||
				(a.Wires() == best.Wires() && a.TestCycles() < best.TestCycles()) {
				c.run, c.best = best, a
				found = true
			}
		}
	}
	if !found {
		return nil, firstErr
	}
	return c.best.Clone(), nil
}

// designOnce is one greedy run into c.run: place the modules in order,
// then clean up.
func (c *chip) designOnce(order []int, maxWires int, rule OptionRule, choice placeChoice) error {
	a := c.run
	a.reset()
	for _, mi := range order {
		if err := c.place(a, mi, maxWires, rule, choice); err != nil {
			return err
		}
	}
	a.localMinimize()
	return nil
}

// localMinimize is the post-placement clean-up that serves criterion 1:
// shrink over-wide groups, merge group pairs when the union fits at the
// wider width, and move members between groups when a move lets the donor
// shrink. Each accepted change strictly reduces the wire count, so the
// loop terminates.
func (a *Architecture) localMinimize() {
	a.shrinkAll()
	for {
		if a.mergeOnce() {
			continue
		}
		if a.moveOnce() {
			continue
		}
		return
	}
}

// shrinkWidth returns the smallest width ≤ g.Width at which the group's
// members still fit the depth. The fill is non-increasing in width and
// the group fits at its current width, so binary search applies.
func (a *Architecture) shrinkWidth(g *Group) int {
	return minFeasible(1, g.Width, func(w int) bool {
		return a.fillAt(g, w) <= a.Depth
	})
}

// shrinkAll narrows every group to the smallest width at which its members
// still fit the depth.
func (a *Architecture) shrinkAll() {
	for _, g := range a.Groups {
		g.Width = a.shrinkWidth(g)
		a.refit(g)
	}
}

// mergeOnce merges the best group pair whose union fits within the depth
// at the wider of the two widths, saving the narrower group's wires.
// Returns false when no merge applies.
func (a *Architecture) mergeOnce() bool {
	bestI, bestJ := -1, -1
	var bestFill int64
	for i := 0; i < len(a.Groups); i++ {
		gi := a.Groups[i]
		for j := i + 1; j < len(a.Groups); j++ {
			gj := a.Groups[j]
			w := max(gi.Width, gj.Width)
			fill := a.fillAt(gi, w) + a.fillAt(gj, w)
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
	gi.Width = max(gi.Width, gj.Width)
	gi.Members = append(gi.Members, gj.Members...)
	gi.Times = append(gi.Times, gj.Times...)
	gi.Fill = bestFill // the union's fill at the wider width, as fillAt reads it
	a.Groups = append(a.Groups[:bestJ], a.Groups[bestJ+1:]...)
	// The merged group may now shrink below the wider width.
	gi.Width = a.shrinkWidth(gi)
	a.refit(gi)
	return true
}

// moveOnce relocates one module so that its donor group can shrink (or
// disappear), accepting only moves that reduce the total wire count.
// Returns false when no improving move exists.
func (a *Architecture) moveOnce() bool {
	for gi, g := range a.Groups {
		for idx, mi := range g.Members {
			tt := a.Designer.TimeTable(mi)
			// Donor width after losing the member: the remaining members'
			// fill is the group fill minus this member's time, still
			// non-increasing in width, so the smallest width that fits is
			// found by binary search. The remainder fits at the current
			// width (it is a subset of the group), so a feasible width
			// always exists.
			newW := 0
			if len(g.Members) > 1 {
				newW = minFeasible(1, g.Width, func(w int) bool {
					return a.fillAt(g, w)-atWidth(tt, w) <= a.Depth
				})
			}
			if newW >= g.Width {
				continue // no wires saved
			}
			for gj, h := range a.Groups {
				if gi == gj {
					continue
				}
				t := atWidth(tt, h.Width)
				if h.Fill+t > a.Depth {
					continue
				}
				// Accept: move mi into h, shrink or delete g.
				h.addMember(mi, t)
				if len(g.Members) == 1 {
					a.Groups = append(a.Groups[:gi], a.Groups[gi+1:]...)
				} else {
					g.removeMemberAt(idx)
					g.Width = newW
					a.refit(g)
				}
				return true
			}
		}
	}
	return false
}

// placeOption is one way to place a module that fits no group as it is:
// a new group, or an existing one widened.
type placeOption struct {
	group int // -1 for a new group
	extra int // wires added
	free  int64
}

// noWiresError is place's failure: module mi fits no group, and no
// option to place it fits within maxWires. The squeeze discards every
// such failure and the portfolio keeps only its first, so the message is
// formatted only when read.
type noWiresError struct {
	soc          *soc.SOC
	mi, maxWires int
}

func (e *noWiresError) Error() string {
	return fmt.Sprintf("soc %s cannot be tested on the target ATE: module %d needs more than the %d available wires",
		e.soc.Name, e.soc.Modules[e.mi].ID, e.maxWires)
}

// place assigns module mi to a, implementing the per-module step of
// Step 1.
func (c *chip) place(a *scratch, mi, maxWires int, rule OptionRule, choice placeChoice) error {
	tt := a.Designer.TimeTable(mi)
	wmin := c.wmin[mi]
	// First try existing groups without widening. The paper assigns to
	// the group requiring the smallest vector memory depth (smallest
	// added time); the best-fit variant instead minimizes the slack
	// left after placement.
	bestG := -1
	var bestT, bestKey int64
	for gi, g := range a.Groups {
		t := atWidth(tt, g.Width)
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
		a.Groups[bestG].addMember(mi, bestT)
		return nil
	}

	// The module fits no existing group. Option (1): open a new group of
	// width wmin. Option (2): widen an existing group just enough that
	// the module (and the refitted members) fit.
	used := a.Wires()
	totalFree := a.FreeMemory()
	candidates := c.options[:0]

	if used+wmin <= maxWires {
		newFill := atWidth(tt, wmin)
		free := totalFree + int64(wmin)*(a.Depth-newFill)
		candidates = append(candidates, placeOption{group: -1, extra: wmin, free: free})
	}
	if maxE := maxWires - used; maxE >= 1 {
		for gi, g := range a.Groups {
			// The group's fill plus the module's time is non-increasing
			// in width, so the minimal feasible extension is found by
			// binary search over e in [1, maxE]. Every probe widens the
			// group (e ≥ 1), so its fill is the sum of its members' times
			// there, as fillAt reads it; their tables are looked up once
			// per group, not once per probe.
			tables := c.tables[:0]
			for _, m := range g.Members {
				tables = append(tables, a.Designer.TimeTable(m))
			}
			c.tables = tables
			extFill := func(e int) int64 {
				w := g.Width + e
				var fill int64
				for _, t := range tables {
					fill += atWidth(t, w)
				}
				return fill + atWidth(tt, w)
			}
			if extFill(maxE) > a.Depth {
				continue // no feasible extension for this group
			}
			e := minFeasible(1, maxE, func(e int) bool {
				return extFill(e) <= a.Depth
			})
			w := g.Width + e
			fill := extFill(e)
			free := totalFree - int64(g.Width)*(a.Depth-g.Fill) +
				int64(w)*(a.Depth-fill)
			candidates = append(candidates, placeOption{group: gi, extra: e, free: free})
		}
	}
	c.options = candidates
	if len(candidates) == 0 {
		return &noWiresError{soc: a.SOC, mi: mi, maxWires: maxWires}
	}

	chosen := candidates[0]
	switch rule {
	case RuleAlwaysNewGroup:
		// Prefer the new-group option when present; otherwise fall
		// back to the cheapest widening.
		for _, o := range candidates {
			if o.group == -1 {
				chosen = o
				break
			}
		}
		if chosen.group != -1 {
			for _, o := range candidates[1:] {
				if o.extra < chosen.extra {
					chosen = o
				}
			}
		}
	case RulePreferWiden:
		found := false
		for _, o := range candidates {
			if o.group >= 0 && (!found || o.extra < chosen.extra ||
				(o.extra == chosen.extra && o.free > chosen.free)) {
				chosen = o
				found = true
			}
		}
		if !found {
			chosen = candidates[0]
		}
	default: // RuleMaxFreeMemory, the paper's rule.
		for _, o := range candidates[1:] {
			if o.free > chosen.free ||
				(o.free == chosen.free && o.extra < chosen.extra) {
				chosen = o
			}
		}
	}

	if chosen.group == -1 {
		a.openGroup(wmin, mi, atWidth(tt, wmin))
		return nil
	}
	g := a.Groups[chosen.group]
	g.Width += chosen.extra
	a.refit(g)
	g.addMember(mi, atWidth(tt, g.Width))
	return nil
}

// WidenOnce adds one TAM wire to the most-filled group whose fill the
// extra wire actually reduces (the paper's Step 2 redistribution move).
// Groups tied on fill are tried in index order — an explicit tie-break,
// so the chosen move does not depend on sort internals or platform.
// It returns false when no group can improve, i.e. all wrapped times have
// saturated. Rather than sorting all groups per wire, candidates are
// selected by repeated maximum (the first or second candidate almost
// always improves).
func (a *Architecture) WidenOnce() bool {
	lastFill := int64(math.MaxInt64)
	lastIdx := -1
	for {
		best := -1
		for i, g := range a.Groups {
			if g.Fill > lastFill || (g.Fill == lastFill && i <= lastIdx) {
				continue // already tried in an earlier round
			}
			if best < 0 || g.Fill > a.Groups[best].Fill {
				best = i
			}
		}
		if best < 0 {
			return false
		}
		g := a.Groups[best]
		if a.fillAt(g, g.Width+1) < g.Fill {
			g.Width++
			a.refit(g)
			return true
		}
		lastFill, lastIdx = g.Fill, best
	}
}

// String renders a compact human-readable summary.
func (a *Architecture) String() string {
	s := fmt.Sprintf("architecture for %s: k=%d channels, %d groups, test=%d cycles (depth %d)\n",
		a.SOC.Name, a.Channels(), len(a.Groups), a.TestCycles(), a.Depth)
	for gi, g := range a.Groups {
		s += fmt.Sprintf("  group %d: width %d wires, fill %d/%d, modules",
			gi, g.Width, g.Fill, a.Depth)
		for _, mi := range g.Members {
			m := &a.SOC.Modules[mi]
			if m.Name != "" {
				s += fmt.Sprintf(" %s", m.Name)
			} else {
				s += fmt.Sprintf(" #%d", m.ID)
			}
		}
		s += "\n"
	}
	return s
}
