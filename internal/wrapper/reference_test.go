package wrapper

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"multisite/internal/soc"
)

// referenceTable is the per-module table as the Designer built it before
// its time kernel: fitChains for every chain count c = 1..n, every
// resulting Design kept. It costs O(n²) per module, so it lives here only
// as the reference the kernel is tested against.
type referenceTable struct {
	// designs[c-1] is the design with exactly c chains.
	designs []Design
	// prefixBest[c-1] is the index (chain count - 1) of the best design
	// among chain counts 1..c, ties to the fewest chains.
	prefixBest []int
	// times[w-1] is the prefix minimum of the design times.
	times []int64
}

func newReferenceTable(m *soc.Module, n int) *referenceTable {
	r := &referenceTable{
		designs:    make([]Design, n),
		prefixBest: make([]int, n),
		times:      make([]int64, n),
	}
	lengths := m.SortedChainLengths()
	for c := 1; c <= n; c++ {
		if m.Patterns == 0 {
			r.designs[c-1] = Design{Width: c, Chains: 0, Time: 0}
		} else {
			r.designs[c-1] = fitChains(m, lengths, c)
			r.designs[c-1].Width = c
		}
		if c == 1 || r.designs[c-1].Time < r.designs[r.prefixBest[c-2]].Time {
			r.prefixBest[c-1] = c - 1
		} else {
			r.prefixBest[c-1] = r.prefixBest[c-2]
		}
		r.times[c-1] = r.designs[r.prefixBest[c-1]].Time
	}
	return r
}

// fit is Designer.Fit over the reference table. Over a table of all
// MaxUsefulWidth chain counts it is also the standalone Fit.
func (r *referenceTable) fit(w int) Design {
	best := r.designs[r.prefixBest[min(w, len(r.designs))-1]]
	best.Width = w
	return best
}

// referenceMinWidth is MinWidth as a linear scan of the reference times.
func referenceMinWidth(times []int64, depth int64, maxW int) (int, bool) {
	for w := 1; w <= min(maxW, len(times)); w++ {
		if times[w-1] <= depth {
			return w, true
		}
	}
	return 0, false
}

func describe(m *soc.Module) string {
	lengths := make([]int, len(m.ScanChains))
	for i, c := range m.ScanChains {
		lengths[i] = c.Length
	}
	return fmt.Sprintf("module{in %d, out %d, bidir %d, patterns %d, chains %v}",
		m.Inputs, m.Outputs, m.Bidirs, m.Patterns, lengths)
}

// CheckDesignerAgainstReference compares a fresh Designer over the single
// module m with the reference table: the time table, the prefix-best
// chain counts, MinWidth at every reference time and one cycle
// below it, Time and Fit at every width from 1 to the table cap + 3, and
// the standalone Fit at the chain-count boundaries. It reports the first
// mismatch of m. It is exported for the external test package, which can
// import the built-in chips.
func CheckDesignerAgainstReference(t testing.TB, m *soc.Module) {
	t.Helper()
	d := NewDesigner(&soc.SOC{Modules: []soc.Module{*m}})
	n := min(MaxUsefulWidth(m), MaxTableWidth)
	ref := newReferenceTable(m, n)
	tab := d.table(0)
	if !slices.Equal(tab.times, ref.times) {
		t.Errorf("%s: times\n got %v\nwant %v", describe(m), tab.times, ref.times)
		return
	}
	for w := 1; w <= n; w++ {
		if got, want := int(tab.chains[w-1]), ref.prefixBest[w-1]+1; got != want {
			t.Errorf("%s width %d: prefix-best chain count %d, want %d", describe(m), w, got, want)
			return
		}
	}
	for w := 1; w <= n+3; w++ {
		want := ref.fit(w)
		if got := d.Time(0, w); got != want.Time {
			t.Errorf("%s width %d: Time %d, want %d", describe(m), w, got, want.Time)
			return
		}
		if got := d.Fit(0, w); !reflect.DeepEqual(got, want) {
			t.Errorf("%s width %d: Fit\n got %+v\nwant %+v", describe(m), w, got, want)
			return
		}
	}
	for w := 1; w <= n; w++ {
		for _, depth := range []int64{ref.times[w-1], ref.times[w-1] - 1} {
			for _, maxW := range []int{w, n + 3} {
				gotW, gotOK := d.MinWidth(0, depth, maxW)
				wantW, wantOK := referenceMinWidth(ref.times, depth, maxW)
				if gotW != wantW || gotOK != wantOK {
					t.Errorf("%s depth %d maxW %d: MinWidth (%d,%v), want (%d,%v)",
						describe(m), depth, maxW, gotW, gotOK, wantW, wantOK)
					return
				}
			}
		}
	}
	full := ref
	if MaxUsefulWidth(m) > n {
		full = newReferenceTable(m, MaxUsefulWidth(m))
	}
	chains, top := len(m.ScanChains), MaxUsefulWidth(m)
	for _, w := range []int{1, 2, chains - 1, chains, chains + 1, top - 1, top, top + 3, MaxTableWidth + 1} {
		if w < 1 {
			continue
		}
		if got, want := Fit(m, w), full.fit(w); !reflect.DeepEqual(got, want) {
			t.Errorf("%s width %d: standalone Fit\n got %+v\nwant %+v", describe(m), w, got, want)
			return
		}
	}
}
