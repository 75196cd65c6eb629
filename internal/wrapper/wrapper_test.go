package wrapper

import (
	"math/rand"
	"testing"
	"testing/quick"

	"multisite/internal/soc"
)

func TestTestTimeFormula(t *testing.T) {
	cases := []struct {
		si, so, p int
		want      int64
	}{
		{10, 5, 1, 11 + 5}, // (1+10)·1 + 5
		{5, 10, 1, 11 + 5}, // symmetric
		{0, 0, 7, 7},       // cell-less: capture only
		{100, 100, 10, 1010 + 100},
		{3, 8, 100, 900 + 3},
	}
	for _, c := range cases {
		if got := TestTime(c.si, c.so, c.p); got != c.want {
			t.Errorf("TestTime(%d,%d,%d) = %d, want %d", c.si, c.so, c.p, got, c.want)
		}
	}
}

func TestFitCombinational(t *testing.T) {
	// c6288-like: 32 in, 32 out, no scan, 12 patterns.
	m := &soc.Module{ID: 1, Inputs: 32, Outputs: 32, Patterns: 12}
	d := Fit(m, 8)
	if err := d.Validate(m); err != nil {
		t.Fatalf("invalid design: %v", err)
	}
	// 8 chains of 4 in / 4 out: T = (1+4)*12 + 4 = 64.
	if d.Time != 64 {
		t.Errorf("Time = %d, want 64", d.Time)
	}
}

func TestFitSingleChain(t *testing.T) {
	// One scan chain of 32, 35 in, 2 out, 75 patterns (s838-like) at w=1:
	// si = 32+35 = 67, so = 32+2 = 34, T = 68*75 + 34 = 5134.
	m := &soc.Module{ID: 3, Inputs: 35, Outputs: 2, Patterns: 75,
		ScanChains: soc.ChainsOfLengths(32)}
	d := Fit(m, 1)
	if err := d.Validate(m); err != nil {
		t.Fatalf("invalid design: %v", err)
	}
	if d.MaxIn != 67 || d.MaxOut != 34 {
		t.Errorf("MaxIn/MaxOut = %d/%d, want 67/34", d.MaxIn, d.MaxOut)
	}
	if d.Time != 68*75+34 {
		t.Errorf("Time = %d, want %d", d.Time, 68*75+34)
	}
}

func TestFitBidirsCountBothSides(t *testing.T) {
	m := &soc.Module{ID: 1, Inputs: 0, Outputs: 0, Bidirs: 6, Patterns: 10}
	d := Fit(m, 2)
	if err := d.Validate(m); err != nil {
		t.Fatalf("invalid design: %v", err)
	}
	// 6 bidirs need 6 input and 6 output cells over 2 chains: 3+3.
	if d.MaxIn != 3 || d.MaxOut != 3 {
		t.Errorf("MaxIn/MaxOut = %d/%d, want 3/3", d.MaxIn, d.MaxOut)
	}
}

func TestFitZeroPatterns(t *testing.T) {
	m := &soc.Module{ID: 0, Inputs: 100, Outputs: 100}
	d := Fit(m, 4)
	if d.Time != 0 {
		t.Errorf("zero-pattern Time = %d, want 0", d.Time)
	}
	if err := d.Validate(m); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestFitWidthOnePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Fit(w=0) did not panic")
		}
	}()
	Fit(&soc.Module{ID: 1, Inputs: 1, Patterns: 1}, 0)
}

func TestFitDominatesFitExact(t *testing.T) {
	m := &soc.Module{ID: 4, Inputs: 36, Outputs: 39, Patterns: 105,
		ScanChains: soc.ChainsOfLengths(54, 53, 52, 52)}
	for w := 1; w <= 12; w++ {
		combine := Fit(m, w).Time
		exact := FitExact(m, w).Time
		if combine > exact {
			t.Errorf("w=%d: COMBINE %d worse than exact %d", w, combine, exact)
		}
	}
}

func TestFitMonotoneInWidth(t *testing.T) {
	m := &soc.Module{ID: 5, Inputs: 38, Outputs: 304, Patterns: 110,
		ScanChains: soc.ChainsOfLengths(48, 48, 48, 47, 47, 46, 46, 45)}
	prev := Fit(m, 1).Time
	for w := 2; w <= 40; w++ {
		cur := Fit(m, w).Time
		if cur > prev {
			t.Errorf("T(%d)=%d > T(%d)=%d: not monotone", w, cur, w-1, prev)
		}
		prev = cur
	}
}

func TestWaterFillOptimal(t *testing.T) {
	cases := []struct {
		base    []int
		n       int
		wantMax int
	}{
		{[]int{0, 0, 0}, 9, 3},
		{[]int{5, 0, 0}, 4, 5},  // fill the two empty bins to 2,2 — max stays 5
		{[]int{5, 0, 0}, 10, 5}, // 0+5, 0+5 → level 5
		{[]int{5, 0, 0}, 12, 6}, // level rises above the tallest
		{[]int{3, 3, 3}, 1, 4},
		{[]int{7}, 3, 10},
	}
	for _, c := range cases {
		cells := waterFill(c.base, c.n)
		sum, max := 0, 0
		for i, add := range cells {
			sum += add
			if c.base[i]+add > max {
				max = c.base[i] + add
			}
		}
		if sum != c.n {
			t.Errorf("waterFill(%v,%d) placed %d cells", c.base, c.n, sum)
		}
		if max != c.wantMax {
			t.Errorf("waterFill(%v,%d) max = %d, want %d", c.base, c.n, max, c.wantMax)
		}
	}
}

func TestWaterFillZero(t *testing.T) {
	cells := waterFill([]int{1, 2}, 0)
	if cells[0] != 0 || cells[1] != 0 {
		t.Errorf("waterFill(...,0) = %v", cells)
	}
}

func TestMaxUsefulWidth(t *testing.T) {
	m := &soc.Module{ID: 1, Inputs: 5, Outputs: 9, Bidirs: 1,
		ScanChains: soc.ChainsOfLengths(10, 10), Patterns: 3}
	// 2 chains + max(5+1, 9+1) = 12.
	if got := MaxUsefulWidth(m); got != 12 {
		t.Errorf("MaxUsefulWidth = %d, want 12", got)
	}
	empty := &soc.Module{ID: 2, Patterns: 0}
	if got := MaxUsefulWidth(empty); got != 1 {
		t.Errorf("MaxUsefulWidth(empty) = %d, want 1", got)
	}
}

func TestMinTimeSaturates(t *testing.T) {
	m := &soc.Module{ID: 1, Inputs: 4, Outputs: 4, Patterns: 10,
		ScanChains: soc.ChainsOfLengths(30, 20)}
	min := Fit(m, MaxUsefulWidth(m)).Time
	// Beyond MaxUsefulWidth the time cannot drop below min.
	if got := Fit(m, MaxUsefulWidth(m)+10).Time; got != min {
		t.Errorf("time beyond max useful width = %d, want %d", got, min)
	}
	// The longest chain bounds the best shift length.
	if lb := int64(1+30)*10 + 0; min < lb {
		t.Errorf("min time %d below structural bound %d", min, lb)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	m := &soc.Module{ID: 1, Inputs: 8, Outputs: 8, Patterns: 5,
		ScanChains: soc.ChainsOfLengths(6, 6)}
	d := Fit(m, 3)
	if err := d.Validate(m); err != nil {
		t.Fatalf("fresh design invalid: %v", err)
	}
	bad := d
	bad.Time++
	if err := bad.Validate(m); err == nil {
		t.Error("corrupted time accepted")
	}
	bad2 := d
	bad2.InCells = append([]int(nil), d.InCells...)
	bad2.InCells[0]++
	if err := bad2.Validate(m); err == nil {
		t.Error("corrupted cell placement accepted")
	}
}

// randomModule builds a random testable module.
func randomModule(rng *rand.Rand) *soc.Module {
	m := &soc.Module{
		ID:       1,
		Inputs:   rng.Intn(80),
		Outputs:  rng.Intn(80),
		Bidirs:   rng.Intn(10),
		Patterns: 1 + rng.Intn(150),
	}
	for c := rng.Intn(8); c > 0; c-- {
		m.ScanChains = append(m.ScanChains, soc.ScanChain{Length: 1 + rng.Intn(120)})
	}
	if m.ScanCells() == 0 && m.Terminals() == 0 {
		m.Inputs = 1
	}
	return m
}

func TestPropertyFitValid(t *testing.T) {
	f := func(seed int64, w8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModule(rng)
		w := 1 + int(w8)%24
		d := Fit(m, w)
		if err := d.Validate(m); err != nil {
			t.Logf("seed=%d w=%d: %v", seed, w, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFitMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModule(rng)
		prev := Fit(m, 1).Time
		for w := 2; w <= 16; w++ {
			cur := Fit(m, w).Time
			if cur > prev {
				t.Logf("seed=%d: T(%d)=%d > T(%d)=%d", seed, w, cur, w-1, prev)
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyVolumeConserved(t *testing.T) {
	// Every wrapper design moves exactly the module's test bits:
	// Σ chains (scan+in) and Σ (scan+out) match the module.
	f := func(seed int64, w8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomModule(rng)
		w := 1 + int(w8)%16
		d := Fit(m, w)
		sumIn, sumOut := 0, 0
		for i := 0; i < d.Chains; i++ {
			sumIn += d.ScanIn[i]
			sumOut += d.ScanOut[i]
		}
		return sumIn == m.ScanCells()+m.InputCells() &&
			sumOut == m.ScanCells()+m.OutputCells()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
