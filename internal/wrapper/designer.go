package wrapper

import (
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"multisite/internal/soc"
)

// MaxTableWidth caps the per-module time table. No realistic ATE in the
// paper's evaluation offers more than 1024 channels (512 TAM wires), so
// designs are never queried beyond this width; times saturate at the cap.
const MaxTableWidth = 512

// Designer memoizes wrapper designs per module. Architecture optimization
// (Step 1 fitting, Step 2 widening, baseline packing) queries module test
// times at many widths; the Designer tabulates each module's best time per
// width once, with the time-only kernel of chainTimes, and answers every
// width query from that table. Fit builds a full Design only for the
// chain count it returns, once per (module, chain count). Step 1 asks
// for each module's minimum width and its time once per design, in the
// set-up its restart and squeeze runs share; the runs' placements then
// index the time tables directly.
//
// A Designer is safe for concurrent use: queries on an already-built
// module table and Fit calls for an already-built design are lock-free,
// so parallel architecture optimizations of the same SOC (the sweep
// engine's common case) do not contend. A table lookup is one index into
// a slot slice sized at construction and one atomic load, with no boxing
// and no hashing: Step 1 and Step 2 make it in their innermost loops.
type Designer struct {
	// modules is the SOC's module slice. The Designer keeps the slice
	// rather than the *soc.SOC so that For's cache entry does not keep
	// its own weak key alive.
	modules []soc.Module
	// mu serializes table builds only; lookups load a slot atomically.
	mu sync.Mutex
	// tables[mi] holds module mi's table once built, lazily on first
	// query; one slot per module, made with the Designer.
	tables []atomic.Pointer[moduleTable]
}

// moduleTable is the per-module time table. Its slices are immutable once
// published; only the designs slots fill in, each at most once.
type moduleTable struct {
	// times[w-1] is the best test time at TAM width w, for w in
	// 1..min(MaxUsefulWidth, MaxTableWidth): the prefix minimum of the
	// per-chain-count times. Architecture optimization's inner loops
	// index this flat table instead of copying Design structs.
	times []int64
	// chains[w-1] is the chain count of the design behind times[w-1]:
	// the fewest chains among 1..w that reach that time.
	chains []int32
	// designs[c-1] is the design with exactly c chains, built by Fit on
	// first use.
	designs []atomic.Pointer[Design]
}

// NewDesigner returns a Designer for the given SOC.
func NewDesigner(s *soc.SOC) *Designer {
	return &Designer{modules: s.Modules, tables: make([]atomic.Pointer[moduleTable], len(s.Modules))}
}

// designers caches one Designer per live SOC value so that repeated
// architecture designs for the same chip (parameter sweeps, benchmarks)
// reuse the time tables. Keys are weak: a cleanup deletes the entry once
// its SOC is unreachable, so a parsed upload does not pin its tables for
// the life of the process.
var designers sync.Map // weak.Pointer[soc.SOC] -> *Designer

// For returns the cached Designer for the SOC, creating it on first use.
// The SOC must not be mutated after the first call. It must be allocated
// at run time, as every SOC the parser, benchdata and a composite literal
// inside a function produce is: Go 1.24's weak.Make aborts the process on
// a pointer into static data, such as a package-level SOC variable.
func For(s *soc.SOC) *Designer {
	key := weak.Make(s)
	if d, ok := designers.Load(key); ok {
		return d.(*Designer)
	}
	d, loaded := designers.LoadOrStore(key, NewDesigner(s))
	if !loaded {
		runtime.AddCleanup(s, func(k weak.Pointer[soc.SOC]) { designers.Delete(k) }, key)
	}
	return d.(*Designer)
}

// Modules returns the module slice of the SOC this designer was built
// for. The slice is shared and must not be mutated.
func (d *Designer) Modules() []soc.Module { return d.modules }

func (d *Designer) table(mi int) *moduleTable {
	slot := &d.tables[mi]
	if tab := slot.Load(); tab != nil {
		return tab
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if tab := slot.Load(); tab != nil {
		return tab
	}
	m := &d.modules[mi]
	n := min(MaxUsefulWidth(m), MaxTableWidth)
	tab := &moduleTable{
		times:   make([]int64, n),
		chains:  make([]int32, n),
		designs: make([]atomic.Pointer[Design], n),
	}
	if m.Patterns != 0 {
		chainTimes(m, m.SortedChainLengths(), tab.times)
	}
	// Prefix minimum in place, ties to the fewest chains: times[best]
	// still holds the per-chain-count time of the best chain count.
	best := 0
	for c, t := range tab.times {
		if t < tab.times[best] {
			best = c
		}
		tab.times[c] = tab.times[best]
		tab.chains[c] = int32(best + 1)
	}
	slot.Store(tab)
	return tab
}

// Fit returns the best design for module index mi at TAM width w.
// The returned design is shared; callers must not mutate its slices.
func (d *Designer) Fit(mi, w int) Design {
	if w < 1 {
		panic("wrapper.Designer.Fit: width < 1")
	}
	t := d.table(mi)
	c := int(t.chains[min(w, len(t.chains))-1])
	slot := &t.designs[c-1]
	p := slot.Load()
	if p == nil {
		m := &d.modules[mi]
		var built Design // a zero-pattern module: no chains, no time
		if m.Patterns != 0 {
			built = fitChains(m, m.SortedChainLengths(), c)
		}
		slot.CompareAndSwap(nil, &built)
		p = slot.Load()
	}
	best := *p
	best.Width = w
	return best
}

// TimeTable returns the dense best-time table of module mi: entry w-1 is
// the minimum test time in cycles at TAM width w, for w in
// 1..MaxWidthTable(mi); beyond the table the time saturates at the last
// entry. The slice is shared and must not be mutated. The table is
// non-increasing, so callers may binary-search it. Architecture
// optimization's inner loops index it directly instead of paying a map
// load plus a Design struct copy per Time query.
func (d *Designer) TimeTable(mi int) []int64 {
	return d.table(mi).times
}

// Time returns the test time in cycles of module mi at width w.
func (d *Designer) Time(mi, w int) int64 {
	if w < 1 {
		panic("wrapper.Designer.Time: width < 1")
	}
	tt := d.table(mi).times
	if w > len(tt) {
		w = len(tt)
	}
	return tt[w-1]
}

// MinWidth returns the smallest width w ≤ maxW such that module mi tests
// within depth cycles, and whether such a width exists. Because Fit's time
// is non-increasing in w, binary search applies.
func (d *Designer) MinWidth(mi int, depth int64, maxW int) (int, bool) {
	tt := d.table(mi).times
	top := len(tt)
	if top > maxW {
		top = maxW
	}
	if top < 1 {
		return 0, false
	}
	if tt[top-1] > depth {
		return 0, false
	}
	lo, hi := 1, top
	for lo < hi {
		mid := (lo + hi) / 2
		if tt[mid-1] <= depth {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// MaxWidthTable exposes the number of distinct useful chain counts of
// module mi (i.e. MaxUsefulWidth of the module).
func (d *Designer) MaxWidthTable(mi int) int {
	return len(d.table(mi).times)
}
