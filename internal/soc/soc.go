// Package soc models system chips (SOCs) under test: the set of embedded
// modules (cores), their functional terminals, internal scan chains, and test
// pattern counts. It is the common substrate for wrapper design, TAM
// architecture optimization, and multi-site throughput evaluation.
//
// The model follows the ITC'02 SOC Test Benchmarks conventions
// (Marinissen, Iyengar, Chakrabarty, ITC 2002): an SOC is a list of modules;
// module 0 conventionally denotes the SOC top level, and a hierarchy Level
// marks parent/child embedding. Only modules with a positive pattern count
// contribute test time.
package soc

import (
	"fmt"
	"sort"
)

// ScanChain is one internal scan chain of a module.
type ScanChain struct {
	// Length is the number of scan flip-flops in the chain.
	Length int
}

// Module is one embedded core (or the flattened SOC itself) with the
// parameters that determine its wrapper design and test time.
type Module struct {
	// ID is the module identifier; unique within an SOC.
	ID int
	// Name is an optional human-readable name (e.g. "s38417").
	Name string
	// Level is the hierarchy level in the ITC'02 sense: 0 for the SOC
	// top, 1 for cores embedded directly in the SOC, and so on.
	Level int
	// Inputs, Outputs and Bidirs count the functional terminals. A
	// bidirectional terminal needs both a wrapper input cell and a
	// wrapper output cell.
	Inputs, Outputs, Bidirs int
	// ScanChains are the internal scan chains. Empty for purely
	// combinational (or BISTed) modules.
	ScanChains []ScanChain
	// Patterns is the number of test patterns. A module with zero
	// patterns takes no test time and is skipped by architecture design.
	Patterns int
	// IsMemory marks embedded memories (tested with algorithmic
	// patterns through their functional ports, no internal scan).
	IsMemory bool
}

// InputCells returns the number of wrapper input cells the module needs:
// one per functional input plus one per bidirectional terminal.
func (m *Module) InputCells() int { return m.Inputs + m.Bidirs }

// OutputCells returns the number of wrapper output cells the module needs:
// one per functional output plus one per bidirectional terminal.
func (m *Module) OutputCells() int { return m.Outputs + m.Bidirs }

// Terminals returns the total number of functional terminals (i + o + b).
func (m *Module) Terminals() int { return m.Inputs + m.Outputs + m.Bidirs }

// ScanCells returns the total number of internal scan flip-flops.
func (m *Module) ScanCells() int {
	n := 0
	for _, c := range m.ScanChains {
		n += c.Length
	}
	return n
}

// TestBits returns the total test data volume of the module in bits:
// for every pattern, each scan cell and each wrapper cell is loaded and
// unloaded once. This is the classic volume metric used for ATE sizing.
func (m *Module) TestBits() int64 {
	perPattern := int64(m.ScanCells() + m.InputCells() + m.OutputCells())
	return perPattern * int64(m.Patterns)
}

// IsTestable reports whether the module contributes to the SOC test:
// it has at least one pattern and something to shift.
func (m *Module) IsTestable() bool {
	return m.Patterns > 0 && (m.ScanCells() > 0 || m.Terminals() > 0)
}

// Validate checks the module for internal consistency.
func (m *Module) Validate() error {
	if m.Inputs < 0 || m.Outputs < 0 || m.Bidirs < 0 {
		return fmt.Errorf("module %d (%s): negative terminal count", m.ID, m.Name)
	}
	if m.Patterns < 0 {
		return fmt.Errorf("module %d (%s): negative pattern count", m.ID, m.Name)
	}
	for i, c := range m.ScanChains {
		if c.Length <= 0 {
			return fmt.Errorf("module %d (%s): scan chain %d has non-positive length %d",
				m.ID, m.Name, i, c.Length)
		}
	}
	if m.Patterns > 0 && m.ScanCells() == 0 && m.Terminals() == 0 {
		return fmt.Errorf("module %d (%s): has %d patterns but no terminals or scan cells",
			m.ID, m.Name, m.Patterns)
	}
	return nil
}

// SOC is a system chip: a named collection of modules.
type SOC struct {
	// Name identifies the SOC (e.g. "d695").
	Name string
	// Modules lists all modules, including any zero-pattern top-level
	// placeholder. Order is preserved from the source description.
	Modules []Module
}

// TestableModules returns the indices (into s.Modules) of all modules that
// contribute test time, in their original order.
func (s *SOC) TestableModules() []int {
	var idx []int
	for i := range s.Modules {
		if s.Modules[i].IsTestable() {
			idx = append(idx, i)
		}
	}
	return idx
}

// Module returns the module with the given ID, or nil if absent.
func (s *SOC) Module(id int) *Module {
	for i := range s.Modules {
		if s.Modules[i].ID == id {
			return &s.Modules[i]
		}
	}
	return nil
}

// TotalTestBits returns the summed test data volume of all modules.
func (s *SOC) TotalTestBits() int64 {
	var n int64
	for i := range s.Modules {
		n += s.Modules[i].TestBits()
	}
	return n
}

// Validate checks the SOC for consistency: valid modules and unique IDs.
func (s *SOC) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("soc has no name")
	}
	if len(s.Modules) == 0 {
		return fmt.Errorf("soc %s has no modules", s.Name)
	}
	seen := make(map[int]bool, len(s.Modules))
	for i := range s.Modules {
		m := &s.Modules[i]
		if err := m.Validate(); err != nil {
			return err
		}
		if seen[m.ID] {
			return fmt.Errorf("soc %s: duplicate module ID %d", s.Name, m.ID)
		}
		seen[m.ID] = true
	}
	return nil
}

// Clone returns a deep copy of the SOC.
func (s *SOC) Clone() *SOC {
	out := &SOC{Name: s.Name, Modules: make([]Module, len(s.Modules))}
	copy(out.Modules, s.Modules)
	for i := range out.Modules {
		if n := len(s.Modules[i].ScanChains); n > 0 {
			out.Modules[i].ScanChains = make([]ScanChain, n)
			copy(out.Modules[i].ScanChains, s.Modules[i].ScanChains)
		}
	}
	return out
}

// SortedChainLengths returns the module's scan chain lengths in descending
// order. The module itself is not modified.
func (m *Module) SortedChainLengths() []int {
	out := make([]int, len(m.ScanChains))
	for i, c := range m.ScanChains {
		out[i] = c.Length
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// ChainsOfLengths is a convenience constructor turning a list of lengths
// into scan chains.
func ChainsOfLengths(lengths ...int) []ScanChain {
	out := make([]ScanChain, len(lengths))
	for i, l := range lengths {
		out[i] = ScanChain{Length: l}
	}
	return out
}

// UniformChains returns n scan chains of the given length.
func UniformChains(n, length int) []ScanChain {
	out := make([]ScanChain, n)
	for i := range out {
		out[i] = ScanChain{Length: length}
	}
	return out
}
