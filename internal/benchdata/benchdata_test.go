package benchdata

import (
	"math"
	"reflect"
	"testing"

	"multisite/internal/pareto"
)

func TestD695Shape(t *testing.T) {
	s := D695()
	if err := s.Validate(); err != nil {
		t.Fatalf("d695 invalid: %v", err)
	}
	if len(s.Modules) != 11 {
		t.Fatalf("d695 has %d modules, want 11 (top + 10 cores)", len(s.Modules))
	}
	if got := len(s.TestableModules()); got != 10 {
		t.Errorf("testable modules = %d, want 10", got)
	}
	// Literature spot checks.
	m := s.Module(5) // s38584
	if m.Name != "s38584" || m.ScanCells() != 1426 || len(m.ScanChains) != 32 {
		t.Errorf("s38584 = %s scan=%d chains=%d", m.Name, m.ScanCells(), len(m.ScanChains))
	}
	if m := s.Module(9); m.Patterns != 12 || m.Outputs != 320 {
		t.Errorf("s35932 = %+v", m)
	}
}

func TestD695Volume(t *testing.T) {
	// The d695 minimum test area underpins the Table 1 reproduction:
	// k = 28 at 48K depth requires the area in (13·48K, 14·48K].
	area := pareto.TotalMinArea(D695())
	if area < 13*48*1024 || area > 14*48*1024 {
		t.Errorf("d695 min area = %d, outside the Table 1 window (%d, %d]",
			area, 13*48*1024, 14*48*1024)
	}
}

func TestBalancedChains(t *testing.T) {
	chains := balancedChains(1426, 32)
	total, max, min := 0, 0, 1<<30
	for _, c := range chains {
		total += c.Length
		if c.Length > max {
			max = c.Length
		}
		if c.Length < min {
			min = c.Length
		}
	}
	if total != 1426 {
		t.Errorf("total = %d, want 1426", total)
	}
	if max-min > 1 {
		t.Errorf("imbalance %d-%d > 1", max, min)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{Name: "x", Seed: 42, LogicCores: 6, MemoryCores: 4, TargetArea: 2 * Mi}
	a := Generate(spec)
	b := Generate(spec)
	if !reflect.DeepEqual(a, b) {
		t.Error("same spec produced different SOCs")
	}
	spec2 := spec
	spec2.Seed = 43
	c := Generate(spec2)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical SOCs")
	}
}

func TestGenerateCalibrated(t *testing.T) {
	spec := GenSpec{Name: "x", Seed: 7, LogicCores: 10, MemoryCores: 10, TargetArea: 5 * Mi}
	s := Generate(spec)
	if err := s.Validate(); err != nil {
		t.Fatalf("generated SOC invalid: %v", err)
	}
	area := pareto.TotalMinArea(s)
	rel := math.Abs(float64(area-spec.TargetArea)) / float64(spec.TargetArea)
	if rel > 0.02 {
		t.Errorf("area %d misses target %d by %.1f%%", area, spec.TargetArea, 100*rel)
	}
}

func TestGenerateModuleCounts(t *testing.T) {
	s := Generate(GenSpec{Name: "x", Seed: 1, LogicCores: 5, MemoryCores: 3, TargetArea: Mi})
	logic, mem := 0, 0
	for i := range s.Modules {
		m := &s.Modules[i]
		if m.Patterns == 0 {
			continue
		}
		if m.IsMemory {
			mem++
		} else {
			logic++
		}
	}
	if logic != 5 || mem != 3 {
		t.Errorf("logic/mem = %d/%d, want 5/3", logic, mem)
	}
}

func TestPNX8550Disclosure(t *testing.T) {
	// The paper discloses 62 logic and 212 memory modules.
	s := Shared("pnx8550")
	logic, mem := 0, 0
	for i := range s.Modules {
		m := &s.Modules[i]
		if m.Patterns == 0 {
			continue
		}
		if m.IsMemory {
			mem++
		} else {
			logic++
		}
	}
	if logic != 62 || mem != 212 {
		t.Errorf("pnx8550 logic/mem = %d/%d, want 62/212", logic, mem)
	}
}

func TestSyntheticAreas(t *testing.T) {
	// Aggregate calibration targets from the published statistics.
	cases := []struct {
		name   string
		target int64
	}{
		{"p22810", 7 * Mi},
		{"p34392", 15*Mi + Mi/2},
		{"p93791", 27 * Mi},
		{"pnx8550", 205 * Mi},
	}
	for _, c := range cases {
		s := Shared(c.name)
		area := pareto.TotalMinArea(s)
		rel := math.Abs(float64(area-c.target)) / float64(c.target)
		if rel > 0.02 {
			t.Errorf("%s: area %d misses %d by %.1f%%", c.name, area, c.target, 100*rel)
		}
	}
}

func TestSharedStable(t *testing.T) {
	if Shared("d695") != Shared("d695") {
		t.Error("Shared returned different instances")
	}
	if Shared("nope") != nil {
		t.Error("unknown name should be nil")
	}
	for _, name := range Names() {
		s := Shared(name)
		if s == nil {
			t.Errorf("benchmark %s missing", name)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
}

func TestUnevenChainsConserveCells(t *testing.T) {
	s := Generate(GenSpec{Name: "x", Seed: 3, LogicCores: 8, MemoryCores: 0, TargetArea: 4 * Mi})
	for i := range s.Modules {
		m := &s.Modules[i]
		for _, c := range m.ScanChains {
			if c.Length < 1 {
				t.Errorf("module %d has chain of length %d", m.ID, c.Length)
			}
		}
	}
}

func TestFamilyBenchmarksValid(t *testing.T) {
	for _, name := range FamilyNames() {
		s := Shared(name)
		if s == nil {
			t.Fatalf("%s missing from registry", name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
		if len(s.TestableModules()) == 0 {
			t.Errorf("%s has no testable modules", name)
		}
	}
}

func TestFamilyBottleneckChips(t *testing.T) {
	// h953, a586710 and t512505 are the family's bottleneck chips: one
	// core holds a large share of the minimum test area.
	for _, name := range []string{"h953", "a586710", "t512505"} {
		s := Shared(name)
		total := pareto.TotalMinArea(s)
		var maxBits int64
		for i := range s.Modules {
			if b := s.Modules[i].TestBits(); b > maxBits {
				maxBits = b
			}
		}
		// Test bits track min area closely; the dominant core should
		// hold over a third of the volume.
		var totalBits int64
		for i := range s.Modules {
			totalBits += s.Modules[i].TestBits()
		}
		if 3*maxBits < totalBits {
			t.Errorf("%s: dominant core holds only %d of %d bits", name, maxBits, totalBits)
		}
		_ = total
	}
}
