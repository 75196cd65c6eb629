package soc

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleModule() Module {
	return Module{
		ID: 3, Name: "s838", Level: 1,
		Inputs: 35, Outputs: 2, Bidirs: 1,
		ScanChains: ChainsOfLengths(32, 16),
		Patterns:   75,
	}
}

func TestModuleCellCounts(t *testing.T) {
	m := sampleModule()
	if got := m.InputCells(); got != 36 {
		t.Errorf("InputCells = %d, want 36", got)
	}
	if got := m.OutputCells(); got != 3 {
		t.Errorf("OutputCells = %d, want 3", got)
	}
	if got := m.Terminals(); got != 38 {
		t.Errorf("Terminals = %d, want 38", got)
	}
	if got := m.ScanCells(); got != 48 {
		t.Errorf("ScanCells = %d, want 48", got)
	}
}

func TestModuleTestBits(t *testing.T) {
	m := sampleModule()
	// (48 scan + 36 in + 3 out) per pattern, 75 patterns.
	want := int64(48+36+3) * 75
	if got := m.TestBits(); got != want {
		t.Errorf("TestBits = %d, want %d", got, want)
	}
}

func TestModuleNoScanNoCells(t *testing.T) {
	m := Module{ID: 1, Patterns: 10}
	if m.IsTestable() {
		t.Error("module with patterns but no cells should not be testable")
	}
	if err := m.Validate(); err == nil {
		t.Error("Validate should reject patterns without terminals or scan")
	}
}

func TestModuleValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		m    Module
	}{
		{"negative inputs", Module{ID: 1, Inputs: -1, Patterns: 1}},
		{"negative patterns", Module{ID: 1, Inputs: 1, Patterns: -1}},
		{"zero-length chain", Module{ID: 1, Inputs: 1, Patterns: 1,
			ScanChains: []ScanChain{{Length: 0}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.m.Validate(); err == nil {
				t.Errorf("Validate(%+v) = nil, want error", c.m)
			}
		})
	}
}

func TestModuleZeroPatterns(t *testing.T) {
	m := Module{ID: 0, Inputs: 100, Outputs: 50}
	if m.IsTestable() {
		t.Error("zero-pattern module must not be testable")
	}
	if err := m.Validate(); err != nil {
		t.Errorf("zero-pattern module should validate: %v", err)
	}
}

func TestSOCValidate(t *testing.T) {
	s := &SOC{Name: "x", Modules: []Module{sampleModule()}}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid SOC rejected: %v", err)
	}

	if err := (&SOC{Name: "", Modules: []Module{sampleModule()}}).Validate(); err == nil {
		t.Error("nameless SOC accepted")
	}
	if err := (&SOC{Name: "x"}).Validate(); err == nil {
		t.Error("empty SOC accepted")
	}
	dup := &SOC{Name: "x", Modules: []Module{sampleModule(), sampleModule()}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate module IDs accepted")
	}
}

func TestTestableModules(t *testing.T) {
	s := &SOC{Name: "x", Modules: []Module{
		{ID: 0, Inputs: 10},                                  // top: no patterns
		{ID: 1, Inputs: 4, Outputs: 4, Patterns: 5},          // testable
		{ID: 2, Patterns: 0, Inputs: 9},                      // not testable
		{ID: 3, ScanChains: ChainsOfLengths(8), Patterns: 2}, // testable
	}}
	got := s.TestableModules()
	want := []int{1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TestableModules = %v, want %v", got, want)
	}
}

func TestSOCModuleLookup(t *testing.T) {
	s := &SOC{Name: "x", Modules: []Module{{ID: 7, Inputs: 1, Patterns: 1}}}
	if m := s.Module(7); m == nil || m.ID != 7 {
		t.Errorf("Module(7) = %v", m)
	}
	if m := s.Module(8); m != nil {
		t.Errorf("Module(8) = %v, want nil", m)
	}
}

func TestSOCAggregates(t *testing.T) {
	s := &SOC{Name: "x", Modules: []Module{
		{ID: 1, Inputs: 2, Outputs: 2, Patterns: 10, ScanChains: ChainsOfLengths(5, 5)},
		{ID: 2, Inputs: 1, Outputs: 1, Patterns: 20},
	}}
	want := int64(10+2+2)*10 + int64(1+1)*20
	if got := s.TotalTestBits(); got != want {
		t.Errorf("TotalTestBits = %d, want %d", got, want)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := &SOC{Name: "x", Modules: []Module{sampleModule()}}
	c := s.Clone()
	c.Modules[0].ScanChains[0].Length = 999
	c.Modules[0].Patterns = 1
	if s.Modules[0].ScanChains[0].Length != 32 {
		t.Error("clone shares scan chain storage with original")
	}
	if s.Modules[0].Patterns != 75 {
		t.Error("clone shares module storage with original")
	}
}

func TestSortedChainLengths(t *testing.T) {
	m := Module{ScanChains: ChainsOfLengths(3, 9, 6)}
	got := m.SortedChainLengths()
	want := []int{9, 6, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SortedChainLengths = %v, want %v", got, want)
	}
	// The module itself must be untouched.
	if m.ScanChains[0].Length != 3 {
		t.Error("SortedChainLengths mutated the module")
	}
}

func TestUniformChains(t *testing.T) {
	chains := UniformChains(4, 13)
	if len(chains) != 4 {
		t.Fatalf("len = %d, want 4", len(chains))
	}
	for _, c := range chains {
		if c.Length != 13 {
			t.Errorf("chain length %d, want 13", c.Length)
		}
	}
}

// randomSOC builds a random but valid SOC for property tests.
func randomSOC(rng *rand.Rand) *SOC {
	n := 1 + rng.Intn(8)
	s := &SOC{Name: "prop"}
	for i := 0; i < n; i++ {
		m := Module{
			ID:       i,
			Level:    rng.Intn(3),
			Inputs:   rng.Intn(64),
			Outputs:  rng.Intn(64),
			Bidirs:   rng.Intn(8),
			Patterns: rng.Intn(200),
		}
		for c := rng.Intn(6); c > 0; c-- {
			m.ScanChains = append(m.ScanChains, ScanChain{Length: 1 + rng.Intn(100)})
		}
		if m.Patterns > 0 && m.ScanCells() == 0 && m.Terminals() == 0 {
			m.Inputs = 1
		}
		s.Modules = append(s.Modules, m)
	}
	return s
}

func TestPropertyCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		s := randomSOC(rand.New(rand.NewSource(seed)))
		c := s.Clone()
		return reflect.DeepEqual(s, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyTestBitsNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		s := randomSOC(rand.New(rand.NewSource(seed)))
		if s.TotalTestBits() < 0 {
			return false
		}
		for i := range s.Modules {
			if s.Modules[i].TestBits() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
