// Package ieee1500 models the standardized core test wrapper control that
// the paper's architecture presupposes: each embedded module carries an
// IEEE 1500-style wrapper with a wrapper instruction register (WIR), a
// bypass register (WBY), and a wrapper boundary register (WBR); all
// wrappers are daisy-chained on a serial control chain the tester programs
// before (and between) module tests. The package quantifies the control
// overhead of a channel-group test schedule — the cycles spent selecting
// which module is in INTEST while the others sit in BYPASS — which the
// paper implicitly treats as negligible and this model makes checkable.
package ieee1500

import (
	"fmt"

	"multisite/internal/tam"
)

// Instruction is a wrapper instruction.
type Instruction uint8

const (
	// WSBypass routes the control chain through the 1-bit WBY.
	WSBypass Instruction = iota
	// WSIntestScan selects internal test through the wrapper chains.
	WSIntestScan
	// WSExtest selects interconnect test through the WBR.
	WSExtest
	// WSSafe parks the core with safe output values.
	WSSafe
)

// String names the instruction.
func (i Instruction) String() string {
	switch i {
	case WSBypass:
		return "WS_BYPASS"
	case WSIntestScan:
		return "WS_INTEST_SCAN"
	case WSExtest:
		return "WS_EXTEST"
	case WSSafe:
		return "WS_SAFE"
	default:
		return fmt.Sprintf("Instruction(%d)", uint8(i))
	}
}

// WIRLength is the instruction register length per core wrapper; 1500
// implementations commonly use 3–8 bits, enough for the instruction set
// plus user codes.
const WIRLength = 4

// CoreWrapper is the 1500 wrapper of one module.
type CoreWrapper struct {
	// Module is the index into the SOC's Modules slice.
	Module int
	// Name echoes the module name.
	Name string
	// BoundaryCells is the WBR length: one cell per functional
	// terminal (bidirectionals carry two).
	BoundaryCells int
	// Chains is the parallel wrapper-chain count the TAM connects to
	// (the module's wrapper design at its group width).
	Chains int
}

// ControlChain is the serial daisy-chain of all core wrappers of an SOC's
// architecture, in group order.
type ControlChain struct {
	// Wrappers in chain order.
	Wrappers []CoreWrapper
}

// ForArchitecture builds the control chain of a designed architecture:
// one 1500 wrapper per testable module, in group/member order.
func ForArchitecture(arch *tam.Architecture) *ControlChain {
	cc := &ControlChain{}
	for _, g := range arch.Groups {
		for _, mi := range g.Members {
			m := &arch.SOC.Modules[mi]
			d := arch.Designer.Fit(mi, g.Width)
			cc.Wrappers = append(cc.Wrappers, CoreWrapper{
				Module:        mi,
				Name:          m.Name,
				BoundaryCells: m.InputCells() + m.OutputCells(),
				Chains:        d.Chains,
			})
		}
	}
	return cc
}

// WIRChainBits is the total shift length of the WIR chain.
func (cc *ControlChain) WIRChainBits() int {
	return WIRLength * len(cc.Wrappers)
}

// ProgramCycles returns the cycles to program one configuration: shift the
// full WIR chain plus capture/update protocol overhead.
func (cc *ControlChain) ProgramCycles() int64 {
	// Capture, shift N bits, update, return to idle: N + 4.
	return int64(cc.WIRChainBits()) + 4
}

// ScheduleOverhead returns the total control cycles of a full test session
// for the architecture: one chain programming before each module slot.
// Channel groups run concurrently, but the serial control chain is shared,
// so programmings serialize; the architecture's schedule has one slot per
// module.
func ScheduleOverhead(arch *tam.Architecture) int64 {
	cc := ForArchitecture(arch)
	var slots int64
	for _, g := range arch.Groups {
		slots += int64(len(g.Members))
	}
	return slots * cc.ProgramCycles()
}

// OverheadFraction returns the control overhead relative to the test
// length — the quantity that justifies the paper ignoring it.
func OverheadFraction(arch *tam.Architecture) float64 {
	test := arch.TestCycles()
	if test == 0 {
		return 0
	}
	return float64(ScheduleOverhead(arch)) / float64(test)
}
