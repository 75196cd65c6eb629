package tam

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/soc"
	"multisite/internal/wrapper"
)

func d695() *soc.SOC {
	balanced := func(total, n int) []soc.ScanChain {
		out := make([]soc.ScanChain, n)
		q, r := total/n, total%n
		for i := range out {
			l := q
			if i < r {
				l++
			}
			out[i] = soc.ScanChain{Length: l}
		}
		return out
	}
	return &soc.SOC{Name: "d695", Modules: []soc.Module{
		{ID: 0, Name: "top", Level: 0},
		{ID: 1, Name: "c6288", Inputs: 32, Outputs: 32, Patterns: 12},
		{ID: 2, Name: "c7552", Inputs: 207, Outputs: 108, Patterns: 73},
		{ID: 3, Name: "s838", Inputs: 35, Outputs: 2, Patterns: 75, ScanChains: soc.ChainsOfLengths(32)},
		{ID: 4, Name: "s9234", Inputs: 36, Outputs: 39, Patterns: 105, ScanChains: soc.ChainsOfLengths(54, 53, 52, 52)},
		{ID: 5, Name: "s38584", Inputs: 38, Outputs: 304, Patterns: 110, ScanChains: balanced(1426, 32)},
		{ID: 6, Name: "s13207", Inputs: 62, Outputs: 152, Patterns: 234, ScanChains: balanced(638, 16)},
		{ID: 7, Name: "s15850", Inputs: 77, Outputs: 150, Patterns: 95, ScanChains: balanced(534, 16)},
		{ID: 8, Name: "s5378", Inputs: 35, Outputs: 49, Patterns: 97, ScanChains: soc.ChainsOfLengths(46, 45, 44, 44)},
		{ID: 9, Name: "s35932", Inputs: 35, Outputs: 320, Patterns: 12, ScanChains: soc.UniformChains(32, 54)},
		{ID: 10, Name: "s38417", Inputs: 28, Outputs: 106, Patterns: 68, ScanChains: balanced(1636, 32)},
	}}
}

func target(depth int64) ate.ATE {
	return ate.ATE{Channels: 256, Depth: depth, ClockHz: 5e6}
}

func TestStep1D695KnownChannels(t *testing.T) {
	// Regression against the paper's Table 1 d695 column (our Step 1
	// matches the published values at these depths).
	s := d695()
	cases := []struct {
		depthK int64
		wantK  int
	}{
		{48, 28}, {64, 22}, {80, 18}, {96, 14}, {112, 12}, {128, 12},
	}
	for _, c := range cases {
		a, err := DesignStep1(s, target(c.depthK*1024))
		if err != nil {
			t.Fatalf("D=%dK: %v", c.depthK, err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("D=%dK: invalid architecture: %v", c.depthK, err)
		}
		if a.Channels() != c.wantK {
			t.Errorf("D=%dK: k = %d, want %d", c.depthK, a.Channels(), c.wantK)
		}
		if a.TestCycles() > c.depthK*1024 {
			t.Errorf("D=%dK: test %d exceeds depth", c.depthK, a.TestCycles())
		}
	}
}

func TestStep1ChannelsEven(t *testing.T) {
	s := d695()
	for _, depthK := range []int64{48, 56, 72, 104} {
		a, err := DesignStep1(s, target(depthK*1024))
		if err != nil {
			t.Fatal(err)
		}
		if a.Channels()%2 != 0 {
			t.Errorf("D=%dK: odd channel count %d", depthK, a.Channels())
		}
	}
}

func TestStep1AssignsEveryTestableModule(t *testing.T) {
	s := d695()
	a, err := DesignStep1(s, target(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	assigned := map[int]bool{}
	for _, g := range a.Groups {
		for _, mi := range g.Members {
			assigned[mi] = true
		}
	}
	for _, mi := range s.TestableModules() {
		if !assigned[mi] {
			t.Errorf("module %d unassigned", mi)
		}
	}
	// The zero-pattern top module must not appear.
	if assigned[0] {
		t.Error("untestable module 0 assigned")
	}
}

func TestStep1InfeasibleDepth(t *testing.T) {
	s := d695()
	if _, err := DesignStep1(s, target(100)); err == nil {
		t.Error("tiny depth accepted")
	}
}

func TestStep1InfeasibleChannels(t *testing.T) {
	s := d695()
	// Depth forces wide TAMs; 4 channels cannot host them.
	tiny := ate.ATE{Channels: 4, Depth: 48 * 1024, ClockHz: 5e6}
	if _, err := DesignStep1(s, tiny); err == nil {
		t.Error("4-channel ATE accepted for d695 at 48K")
	}
}

func TestStep1RejectsBadInputs(t *testing.T) {
	s := d695()
	if _, err := DesignStep1(s, ate.ATE{}); err == nil {
		t.Error("zero ATE accepted")
	}
	empty := &soc.SOC{Name: "e", Modules: []soc.Module{{ID: 0}}}
	if _, err := DesignStep1(empty, target(1024)); err == nil {
		t.Error("SOC without testable modules accepted")
	}
}

func TestWidenReducesTestCycles(t *testing.T) {
	s := d695()
	a, err := DesignStep1(s, target(48*1024))
	if err != nil {
		t.Fatal(err)
	}
	before := a.TestCycles()
	c := a.Clone()
	used := 0
	for used < 10 && c.WidenOnce() {
		used++
	}
	if used == 0 {
		t.Fatal("widen consumed no wires")
	}
	if c.TestCycles() > before {
		t.Errorf("widen increased test cycles %d → %d", before, c.TestCycles())
	}
	if err := c.Validate(); err != nil {
		t.Errorf("widened architecture invalid: %v", err)
	}
	// Original untouched.
	if a.TestCycles() != before {
		t.Error("widening the clone mutated the original")
	}
}

func TestWidenStopsAtSaturation(t *testing.T) {
	s := &soc.SOC{Name: "tiny", Modules: []soc.Module{
		{ID: 1, Inputs: 2, Outputs: 2, Patterns: 3},
	}}
	a, err := DesignStep1(s, ate.ATE{Channels: 64, Depth: 1 << 20, ClockHz: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	// A 2-in/2-out module saturates almost immediately.
	used := 0
	for used < 1000 && a.WidenOnce() {
		used++
	}
	if used > 4 {
		t.Errorf("widen consumed %d wires on a saturated module", used)
	}
	if more := a.WidenOnce(); more {
		t.Error("WidenOnce reported progress after saturation")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := d695()
	a, err := DesignStep1(s, target(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	c := a.Clone()
	c.Groups[0].Width += 5
	c.refit(c.Groups[0])
	if a.Groups[0].Width == c.Groups[0].Width {
		t.Error("clone shares group storage")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("original corrupted by clone mutation: %v", err)
	}

	// A clone's groups keep their members and times in one block each:
	// growing one group must not write into the next one's part.
	if len(c.Groups) < 2 {
		t.Fatalf("d695 designs %d groups; the check needs two", len(c.Groups))
	}
	members := slices.Clone(c.Groups[1].Members)
	times := slices.Clone(c.Groups[1].Times)
	c.Groups[0].addMember(-1, 7)
	if !slices.Equal(c.Groups[1].Members, members) || !slices.Equal(c.Groups[1].Times, times) {
		t.Errorf("appending to a clone's group 0 changed group 1: members %v times %v, want %v %v",
			c.Groups[1].Members, c.Groups[1].Times, members, times)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s := d695()
	a, err := DesignStep1(s, target(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	c := a.Clone()
	c.Groups[0].Fill++
	if err := c.Validate(); err == nil {
		t.Error("fill corruption accepted")
	}
	c2 := a.Clone()
	c2.Groups[0].Members = append(c2.Groups[0].Members, c2.Groups[1].Members[0])
	c2.Groups[0].Times = append(c2.Groups[0].Times, 1)
	if err := c2.Validate(); err == nil {
		t.Error("duplicate assignment accepted")
	}
}

func TestFreeMemoryIdentity(t *testing.T) {
	s := d695()
	a, err := DesignStep1(s, target(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, g := range a.Groups {
		want += int64(g.Width) * (a.Depth - g.Fill)
	}
	if got := a.FreeMemory(); got != want {
		t.Errorf("FreeMemory = %d, want %d", got, want)
	}
}

func TestOptionRulesAllFeasible(t *testing.T) {
	s := d695()
	for _, rule := range []OptionRule{RuleMaxFreeMemory, RuleAlwaysNewGroup, RulePreferWiden} {
		a, err := DesignStep1With(s, target(64*1024), Options{Rule: rule})
		if err != nil {
			t.Errorf("rule %d: %v", rule, err)
			continue
		}
		if err := a.Validate(); err != nil {
			t.Errorf("rule %d: invalid: %v", rule, err)
		}
	}
}

func TestStringSummary(t *testing.T) {
	s := d695()
	a, err := DesignStep1(s, target(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	out := a.String()
	if !strings.Contains(out, "d695") || !strings.Contains(out, "group 0") {
		t.Errorf("summary missing fields:\n%s", out)
	}
}

// randomSOC produces a small random SOC for property testing.
func randomSOC(rng *rand.Rand) *soc.SOC {
	n := 1 + rng.Intn(10)
	s := &soc.SOC{Name: "prop"}
	for i := 0; i < n; i++ {
		m := soc.Module{
			ID:       i + 1,
			Inputs:   1 + rng.Intn(50),
			Outputs:  rng.Intn(50),
			Patterns: 1 + rng.Intn(80),
		}
		for c := rng.Intn(5); c > 0; c-- {
			m.ScanChains = append(m.ScanChains, soc.ScanChain{Length: 1 + rng.Intn(80)})
		}
		s.Modules = append(s.Modules, m)
	}
	return s
}

func TestPropertyStep1Valid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSOC(rng)
		depth := int64(2000 + rng.Intn(200000))
		a, err := DesignStep1(s, ate.ATE{Channels: 128, Depth: depth, ClockHz: 1e6})
		if err != nil {
			return true // infeasible combinations are fine
		}
		if err := a.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if a.TestCycles() > depth || a.Channels() > 128 || a.Channels()%2 != 0 {
			t.Logf("seed %d: k=%d cycles=%d depth=%d", seed, a.Channels(), a.TestCycles(), depth)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyWidenMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSOC(rng)
		depth := int64(5000 + rng.Intn(100000))
		a, err := DesignStep1(s, ate.ATE{Channels: 128, Depth: depth, ClockHz: 1e6})
		if err != nil {
			return true
		}
		prev := a.TestCycles()
		for i := 0; i < 8; i++ {
			if !a.WidenOnce() {
				break
			}
			cur := a.TestCycles()
			if cur > prev {
				return false
			}
			prev = cur
		}
		return a.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// prePlacedArch builds the worst-case input to localMinimize: every
// testable module alone in its own minimum-width group, nothing merged or
// moved yet. It returns nil when some module cannot fit the depth at all.
func prePlacedArch(s *soc.SOC, target ate.ATE) *Architecture {
	d := wrapper.For(s)
	a := &Architecture{SOC: s, Designer: d, Depth: target.Depth}
	for _, mi := range s.TestableModules() {
		w, ok := d.MinWidth(mi, target.Depth, target.Channels/2)
		if !ok {
			return nil
		}
		t := d.Time(mi, w)
		a.Groups = append(a.Groups, &Group{Width: w, Members: []int{mi}, Times: []int64{t}, Fill: t})
	}
	return a
}

// BenchmarkLocalMinimize measures the post-placement clean-up (shrink,
// merge, move) on the largest Table 1 chip from a one-group-per-module
// starting point.
func BenchmarkLocalMinimize(b *testing.B) {
	s := benchdata.Shared("p93791")
	target := ate.ATE{Channels: 512, Depth: 2 * benchdata.Mi, ClockHz: 5e6}
	pre := prePlacedArch(s, target)
	if pre == nil {
		b.Fatal("p93791 does not fit the benchmark depth")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := pre.Clone()
		c.localMinimize()
	}
}

// TestStep1Allocs pins the allocations and bytes of one Step 1 design
// with warm wrapper tables: the validation, minimum widths and module
// orders are set up once per call and shared by the restart portfolio's
// runs and every squeeze pass, width searches sum member times instead
// of building per-group fill tables, place's member tables and options
// are scratch every run reuses, and every run builds its architecture in
// one of two pooled scratch ones, so the allocations left are the pools'
// first growth, the area orders and one copy of each pass's winner.
// p22810 at 256 channels and 1M depth takes two portfolio passes, twelve
// greedy runs: 126 allocations and 12.3 KB a design in a plain run, up
// to 12.8 KB under -race.
func TestStep1Allocs(t *testing.T) {
	s := benchdata.Shared("p22810")
	target := ate.ATE{Channels: 256, Depth: 1 << 20, ClockHz: 5e6}
	if _, err := DesignStep1(s, target); err != nil { // warms the tables
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := DesignStep1(s, target); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls the function once more as a warm-up.
	kb := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / 1024
	t.Logf("%.0f allocations, %.1f KB per design", allocs, kb)
	maxAllocs, maxKB := 130.0, 13.0
	if raceEnabled {
		maxKB = 14
	}
	if allocs > maxAllocs {
		t.Errorf("%.0f allocations per Step 1 design; want at most %.0f", allocs, maxAllocs)
	}
	if kb > maxKB {
		t.Errorf("%.1f KB allocated per Step 1 design; want at most %.0f", kb, maxKB)
	}
}

// TestStep1ResultsKeepTheirSlices: an architecture DesignStep1With
// returned is the same after later designs of the same chip at other
// depths and caps — its text, every group's member times and fill, and
// its validity — under every option set that changes how a pass picks
// its winner. Every run builds in pooled scratch architectures, so this
// shows that no pooled slice reaches a returned design, or a memoized
// one, which is a returned design.
func TestStep1ResultsKeepTheirSlices(t *testing.T) {
	s := benchdata.Shared("p22810")
	for _, o := range []Options{{}, {SinglePass: true}, {NoSqueeze: true}} {
		a, err := DesignStep1With(s, target(1<<20), o)
		if err != nil {
			t.Fatal(err)
		}
		text := a.WriteString()
		var times [][]int64
		var fills []int64
		for _, g := range a.Groups {
			times = append(times, slices.Clone(g.Times))
			fills = append(fills, g.Fill)
		}
		for _, depth := range []int64{256 << 10, 1 << 20, 4 << 20} {
			for _, maxWires := range []int{0, a.Wires(), a.Wires() + 8} {
				DesignStep1With(s, target(depth), Options{MaxWires: maxWires}) // a failure is fine
			}
		}
		if got := a.WriteString(); got != text {
			t.Fatalf("%+v: architecture changed after later designs:\n%s\nwas\n%s", o, got, text)
		}
		for gi, g := range a.Groups {
			if !slices.Equal(g.Times, times[gi]) || g.Fill != fills[gi] {
				t.Fatalf("%+v: group %d times %v fill %d, were %v fill %d", o, gi, g.Times, g.Fill, times[gi], fills[gi])
			}
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
	}
}
