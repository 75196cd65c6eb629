package tam

import (
	"fmt"
	"slices"
	"testing"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/soc"
)

// The hot paths in tam.go (binary width searches over the flat time
// tables, the sort-free widening move) must be byte-identical to the
// retained straightforward reference in reference_test.go. These tests pin
// that equivalence on the d695 fixture and on seeded generated SOCs, and
// FuzzStep1MatchesReference on fuzzed ones.

// genCase is one generated chip of the equivalence table and the ATE it
// is designed against.
type genCase struct {
	name     string
	spec     benchdata.GenSpec
	channels int
	depthK   int64
}

// genCases are the generated chips equivCases sweeps and
// FuzzStep1MatchesReference starts from.
func genCases() []genCase {
	var cases []genCase
	// Seeded synthetic SOCs: small enough that the reference's quadratic
	// scans stay fast, varied enough (core mix, spread, area) to exercise
	// merges, moves, widening extensions, and multi-wire squeezes.
	for seed := int64(1); seed <= 12; seed++ {
		cases = append(cases, genCase{
			name: fmt.Sprintf("gen%d", seed),
			spec: benchdata.GenSpec{
				Name:        fmt.Sprintf("equiv%d", seed),
				Seed:        seed,
				LogicCores:  4 + int(seed%5)*2,
				MemoryCores: int(seed % 4),
				TargetArea:  (1 + seed%6) * benchdata.Mi / 2,
				Spread:      0.8 + float64(seed%3)*0.4,
			},
			channels: 128 + int(seed%2)*128,
			depthK:   32 + 16*seed,
		})
	}
	// Regression cases: on these SOCs a binary-searched criterion 1
	// squeeze returned architectures the one-wire-at-a-time walk never
	// produces (same wires, worse fill, or different group structure) —
	// the greedy's output depends on the cap value, not only on
	// feasibility, so the squeeze must walk caps one wire at a time.
	squeeze33 := benchdata.GenSpec{
		Name: "squeeze33", Seed: 33,
		LogicCores: 9, MemoryCores: 3,
		TargetArea: benchdata.Mi / 2, Spread: 0.5,
	}
	squeeze17 := benchdata.GenSpec{
		Name: "squeeze17", Seed: 17,
		LogicCores: 11, MemoryCores: 2,
		TargetArea: benchdata.Mi, Spread: 1.2,
	}
	// On 7 channels (3 wires) this chip's modules fit alone but not
	// together: the greedy runs fail placing one, and Step 1 reports
	// that failure.
	nowires := benchdata.GenSpec{
		Name: "nowires", Seed: 97,
		LogicCores: 1, MemoryCores: 1,
		TargetArea: benchdata.Mi / 2, Spread: 0.6,
	}
	return append(cases,
		genCase{"squeeze33-48K", squeeze33, 256, 48},
		genCase{"squeeze17-96ch", squeeze17, 96, 24},
		genCase{"squeeze17-256ch", squeeze17, 256, 48},
		genCase{"nowires-7ch", nowires, 7, 174})
}

// equivCases is the table of scenarios the equivalence tests sweep:
// the d695 fixture across depths plus the generated chips of genCases,
// each against its own ATE.
func equivCases() []struct {
	name   string
	soc    *soc.SOC
	target ate.ATE
} {
	var cases []struct {
		name   string
		soc    *soc.SOC
		target ate.ATE
	}
	add := func(name string, s *soc.SOC, channels int, depthK int64) {
		cases = append(cases, struct {
			name   string
			soc    *soc.SOC
			target ate.ATE
		}{name, s, ate.ATE{Channels: channels, Depth: depthK * 1024, ClockHz: 5e6}})
	}
	for _, depthK := range []int64{48, 64, 96, 128} {
		add(fmt.Sprintf("d695-%dK", depthK), d695(), 256, depthK)
	}
	for _, c := range genCases() {
		add(c.name, benchdata.Generate(c.spec), c.channels, c.depthK)
	}
	return cases
}

// archEqual reports a diff between two architectures, comparing the full
// group structure including per-member times.
func archEqual(t *testing.T, name string, got, want *Architecture) {
	t.Helper()
	if got.WriteString() != want.WriteString() {
		t.Errorf("%s: architecture differs from reference\ngot:\n%s\nwant:\n%s",
			name, got.WriteString(), want.WriteString())
		return
	}
	for gi, g := range got.Groups {
		for i, tm := range g.Times {
			if want.Groups[gi].Times[i] != tm {
				t.Errorf("%s: group %d member %d time %d != reference %d",
					name, gi, i, tm, want.Groups[gi].Times[i])
			}
		}
	}
}

// step1MatchesReference designs one scenario with DesignStep1With and
// with the reference: both must fail with the same message, or both
// succeed with a valid, identical architecture.
func step1MatchesReference(t *testing.T, name string, s *soc.SOC, target ate.ATE, o Options) {
	t.Helper()
	got, errGot := DesignStep1With(s, target, o)
	want, errWant := referenceDesignStep1With(s, target, o)
	if (errGot == nil) != (errWant == nil) {
		t.Errorf("%s: error mismatch: got %v, reference %v", name, errGot, errWant)
		return
	}
	if errGot != nil {
		if errGot.Error() != errWant.Error() {
			t.Errorf("%s: error %q, reference %q", name, errGot, errWant)
		}
		return // both infeasible
	}
	if err := got.Validate(); err != nil {
		t.Errorf("%s: invalid architecture after localMinimize: %v", name, err)
	}
	archEqual(t, name, got, want)
}

// TestStep1MatchesReference pins the optimized DesignStep1With (flat time
// tables, shared set-up, binary width searches) byte-identical to the
// literal reference implementation, across option rules and with and
// without the squeeze and the restart portfolio.
func TestStep1MatchesReference(t *testing.T) {
	opts := []Options{
		{},
		{Rule: RuleAlwaysNewGroup},
		{Rule: RulePreferWiden},
		{SinglePass: true},
		{NoSqueeze: true},
		{SinglePass: true, NoSqueeze: true},
	}
	for _, c := range equivCases() {
		for oi, o := range opts {
			step1MatchesReference(t, fmt.Sprintf("%s/opts%d", c.name, oi), c.soc, c.target, o)
		}
	}
}

// FuzzStep1MatchesReference is TestStep1MatchesReference over fuzzed
// generated chips, ATEs and options, seeded with genCases' shapes. The
// ranges (up to 14 logic and 3 memory cores, 512 channels, 512K depth)
// keep one reference design in the milliseconds.
func FuzzStep1MatchesReference(f *testing.F) {
	for _, c := range genCases() {
		f.Add(c.spec.Seed, uint8(c.spec.LogicCores), uint8(c.spec.MemoryCores),
			uint8(c.spec.TargetArea/(benchdata.Mi/2)), uint8(c.spec.Spread*10+0.5),
			uint16(c.channels), uint16(c.depthK), uint8(RuleMaxFreeMemory), false, false)
	}
	f.Fuzz(func(t *testing.T, seed int64, logic, memory, areaHalfMi, spreadTenths uint8,
		channels, depthK uint16, rule uint8, noSqueeze, singlePass bool) {
		spec := benchdata.GenSpec{
			Name:        "fuzz",
			Seed:        seed,
			LogicCores:  max(1, int(logic%15)),
			MemoryCores: int(memory % 4),
			TargetArea:  max(1, int64(areaHalfMi%9)) * benchdata.Mi / 2,
			Spread:      float64(max(1, spreadTenths%21)) / 10,
		}
		target := ate.ATE{
			Channels: max(2, int(channels%513)),
			Depth:    max(1, int64(depthK%513)) * 1024,
			ClockHz:  5e6,
		}
		o := Options{Rule: OptionRule(rule % 3), NoSqueeze: noSqueeze, SinglePass: singlePass}
		step1MatchesReference(t, fmt.Sprintf("%+v %+v %+v", spec, target, o), benchdata.Generate(spec), target, o)
	})
}

// TestOrdersMatchReference pins the set-up a Step 1 call shares to the
// set-up each reference run repeats, at every wire cap: the module
// orders, and for a cap some module cannot meet, the error. The area
// order is the one a cap can reorder — a module's smallest w·time(w) can
// lie above the cap — and area31 is a chip where it does at 3 wires.
func TestOrdersMatchReference(t *testing.T) {
	cases := equivCases()
	area31 := benchdata.Generate(benchdata.GenSpec{
		Name: "area31", Seed: 31,
		LogicCores: 8, MemoryCores: 3,
		TargetArea: benchdata.Mi, Spread: 1.4,
	})
	cases = append(cases, struct {
		name   string
		soc    *soc.SOC
		target ate.ATE
	}{"area31-96K", area31, ate.ATE{Channels: 64, Depth: 96 * 1024, ClockHz: 5e6}})
	for _, tc := range cases {
		c, err := prepare(tc.soc, tc.target)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for maxWires := tc.target.Channels / 2; maxWires >= 1; maxWires-- {
			if _, _, errWant := referenceOrder(tc.soc, tc.target, maxWires, byMinWidth); errWant != nil {
				_, err := c.portfolio(Options{MaxWires: maxWires})
				if err == nil || err.Error() != errWant.Error() {
					t.Errorf("%s/cap%d: portfolio error %v, reference %v", tc.name, maxWires, err, errWant)
				}
				break // every tighter cap fails alike
			}
			for order, got := range [][]int{c.byWidth, c.byArea(maxWires), c.byTime} {
				want, _, _ := referenceOrder(tc.soc, tc.target, maxWires, sortOrder(order))
				if !slices.Equal(got, want) {
					t.Errorf("%s/cap%d/order%d: %v, reference %v", tc.name, maxWires, order, got, want)
				}
			}
		}
	}
}

// TestWidenMatchesReference pins the sort-free WidenOnce byte-identical to
// the sorted reference move across full widening runs, validating the
// architecture after every accepted wire.
func TestWidenMatchesReference(t *testing.T) {
	for _, c := range equivCases() {
		a, err := DesignStep1(c.soc, c.target)
		if err != nil {
			continue
		}
		fast, ref := a.Clone(), a.Clone()
		for move := 0; ; move++ {
			gotMore := fast.WidenOnce()
			wantMore := ref.referenceWidenOnce()
			if gotMore != wantMore {
				t.Errorf("%s: move %d: WidenOnce=%v, reference=%v", c.name, move, gotMore, wantMore)
				break
			}
			if !gotMore {
				break
			}
			archEqual(t, fmt.Sprintf("%s/move%d", c.name, move), fast, ref)
			if err := fast.Validate(); err != nil {
				t.Errorf("%s: move %d: invalid after WidenOnce: %v", c.name, move, err)
				break
			}
			if move > 300 {
				t.Errorf("%s: widening did not saturate after %d moves", c.name, move)
				break
			}
		}
	}
}

// TestLocalMinimizeMatchesReference drives the clean-up pass alone (without
// the surrounding design loop) from a worst-case one-group-per-module
// placement and pins it against the reference operations.
func TestLocalMinimizeMatchesReference(t *testing.T) {
	for _, c := range equivCases() {
		pre := prePlacedArch(c.soc, c.target)
		if pre == nil {
			continue // some module cannot fit this depth at all
		}
		fast, ref := pre.Clone(), pre.Clone()
		fast.localMinimize()
		ref.referenceLocalMinimize()
		if err := fast.Validate(); err != nil {
			t.Errorf("%s: invalid after localMinimize: %v", c.name, err)
			continue
		}
		archEqual(t, c.name, fast, ref)
	}
}

// TestWidenOnceTieBreakDeterministic pins the explicit tie-break: of two
// groups tied on fill, the lower-index one widens first.
func TestWidenOnceTieBreakDeterministic(t *testing.T) {
	s := &soc.SOC{Name: "tie", Modules: []soc.Module{
		{ID: 1, Inputs: 20, Outputs: 20, Patterns: 50, ScanChains: soc.UniformChains(4, 100)},
		{ID: 2, Inputs: 20, Outputs: 20, Patterns: 50, ScanChains: soc.UniformChains(4, 100)},
	}}
	// The depth fits each module alone at width 1 but not both in one
	// group, so placement must open two identical (tied) groups.
	d := ate.ATE{Channels: 64, Depth: 30_000, ClockHz: 5e6}
	a, err := DesignStep1With(s, d, Options{Rule: RuleAlwaysNewGroup, NoSqueeze: true, SinglePass: true})
	if err != nil {
		t.Fatal(err)
	}
	// Identical modules in separate groups at identical widths tie on
	// fill exactly.
	if len(a.Groups) != 2 || a.Groups[0].Fill != a.Groups[1].Fill {
		t.Fatalf("placement did not produce tied groups: %s", a.WriteString())
	}
	w0, w1 := a.Groups[0].Width, a.Groups[1].Width
	if !a.WidenOnce() {
		t.Fatal("tied groups cannot widen")
	}
	if a.Groups[0].Width != w0+1 || a.Groups[1].Width != w1 {
		t.Errorf("tie not broken by index: widths %d/%d, want %d/%d",
			a.Groups[0].Width, a.Groups[1].Width, w0+1, w1)
	}
}
