// Package tap models the IEEE 1149.1 test access port: the 16-state TAP
// controller FSM, instruction and data register scanning, and the TMS
// sequences a tester drives to operate it. Reduced-pin-count test assumes
// boundary scan ([8], [9] of the reproduced paper): the E-RPCT wrapper is
// controlled through this port, and the setup cycles it costs before every
// test are quantified here (they are negligible against the scan test
// itself — an assumption the paper makes implicitly and this package makes
// checkable).
package tap

import "fmt"

// State is one of the 16 TAP controller states.
type State int

const (
	TestLogicReset State = iota
	RunTestIdle
	SelectDRScan
	CaptureDR
	ShiftDR
	Exit1DR
	PauseDR
	Exit2DR
	UpdateDR
	SelectIRScan
	CaptureIR
	ShiftIR
	Exit1IR
	PauseIR
	Exit2IR
	UpdateIR
	numStates
)

var stateNames = [numStates]string{
	"Test-Logic-Reset", "Run-Test/Idle",
	"Select-DR-Scan", "Capture-DR", "Shift-DR", "Exit1-DR", "Pause-DR", "Exit2-DR", "Update-DR",
	"Select-IR-Scan", "Capture-IR", "Shift-IR", "Exit1-IR", "Pause-IR", "Exit2-IR", "Update-IR",
}

// String returns the standard state name.
func (s State) String() string {
	if s < 0 || s >= numStates {
		return fmt.Sprintf("State(%d)", int(s))
	}
	return stateNames[s]
}

// next encodes the 1149.1 state graph: next[state][tms].
var next = [numStates][2]State{
	TestLogicReset: {RunTestIdle, TestLogicReset},
	RunTestIdle:    {RunTestIdle, SelectDRScan},
	SelectDRScan:   {CaptureDR, SelectIRScan},
	CaptureDR:      {ShiftDR, Exit1DR},
	ShiftDR:        {ShiftDR, Exit1DR},
	Exit1DR:        {PauseDR, UpdateDR},
	PauseDR:        {PauseDR, Exit2DR},
	Exit2DR:        {ShiftDR, UpdateDR},
	UpdateDR:       {RunTestIdle, SelectDRScan},
	SelectIRScan:   {CaptureIR, TestLogicReset},
	CaptureIR:      {ShiftIR, Exit1IR},
	ShiftIR:        {ShiftIR, Exit1IR},
	Exit1IR:        {PauseIR, UpdateIR},
	PauseIR:        {PauseIR, Exit2IR},
	Exit2IR:        {ShiftIR, UpdateIR},
	UpdateIR:       {RunTestIdle, SelectDRScan},
}

// Controller is a behavioural TAP controller with an instruction register
// and a selectable data register set.
type Controller struct {
	// IRLength is the instruction register length in bits.
	IRLength int
	// Registers maps instruction codes (as loaded in the IR) to the
	// selected data register length; instructions not present select
	// the 1-bit bypass register.
	Registers map[uint64]int

	state   State
	ir      uint64 // latched instruction
	irShift uint64 // shift stage of the IR
	dr      []bool // shift stage of the selected DR
	cycles  int64
}

// New returns a controller in Test-Logic-Reset with the given IR length.
func New(irLength int) *Controller {
	return &Controller{
		IRLength:  irLength,
		Registers: make(map[uint64]int),
		state:     TestLogicReset,
	}
}

// Cycles returns the TCK cycles consumed so far.
func (c *Controller) Cycles() int64 { return c.cycles }

// drLength returns the selected data register length for the latched
// instruction (bypass = 1 when unknown).
func (c *Controller) drLength() int {
	if n, ok := c.Registers[c.ir]; ok {
		return n
	}
	return 1
}

// Step advances one TCK cycle with the given TMS (and TDI for shifts).
// It returns the TDO bit (meaningful during Shift states).
func (c *Controller) Step(tms bool, tdi bool) bool {
	tdo := false
	// Shift/capture actions happen in the state being exited per
	// 1149.1 (registers act on the falling edge within the state).
	switch c.state {
	case CaptureIR:
		// 1149.1 mandates the two LSBs capture "01".
		c.irShift = 1
	case ShiftIR:
		tdo = c.irShift&1 == 1
		c.irShift >>= 1
		if tdi {
			c.irShift |= 1 << (c.IRLength - 1)
		}
	case UpdateIR:
		// handled on entry below
	case CaptureDR:
		if n := c.drLength(); len(c.dr) != n {
			c.dr = make([]bool, n)
		}
	case ShiftDR:
		if len(c.dr) == 0 {
			c.dr = make([]bool, c.drLength())
		}
		tdo = c.dr[0]
		copy(c.dr, c.dr[1:])
		c.dr[len(c.dr)-1] = tdi
	}

	prev := c.state
	tmsIdx := 0
	if tms {
		tmsIdx = 1
	}
	c.state = next[prev][tmsIdx]
	c.cycles++

	switch c.state {
	case UpdateIR:
		c.ir = c.irShift & ((1 << c.IRLength) - 1)
	case TestLogicReset:
		c.ir = 0 // convention: reset selects the null instruction
	}
	return tdo
}

// pathTMS returns a shortest TMS sequence from one state to another, via
// breadth-first search over the 16-state graph.
func pathTMS(from, to State) []bool {
	if from == to {
		return nil
	}
	type node struct {
		s    State
		path []bool
	}
	seen := [numStates]bool{}
	seen[from] = true
	queue := []node{{from, nil}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for tms := 0; tms < 2; tms++ {
			ns := next[n.s][tms]
			if seen[ns] {
				continue
			}
			path := append(append([]bool(nil), n.path...), tms == 1)
			if ns == to {
				return path
			}
			seen[ns] = true
			queue = append(queue, node{ns, path})
		}
	}
	return nil // unreachable: the graph is strongly connected
}

// GoTo drives the controller to the target state along a shortest TMS
// path and returns the cycles consumed.
func (c *Controller) GoTo(target State) int {
	path := pathTMS(c.state, target)
	for _, tms := range path {
		c.Step(tms, false)
	}
	return len(path)
}

// Reset drives five TMS-high cycles, which reaches Test-Logic-Reset from
// any state per the standard.
func (c *Controller) Reset() {
	for i := 0; i < 5; i++ {
		c.Step(true, false)
	}
}

// LoadInstruction shifts an instruction into the IR and latches it,
// returning the TCK cycles consumed. The controller may start in any
// state.
func (c *Controller) LoadInstruction(code uint64) int {
	start := c.cycles
	c.GoTo(ShiftIR)
	// Shift IRLength bits; the last bit is clocked on the Exit1
	// transition.
	for i := 0; i < c.IRLength; i++ {
		tdi := code&(1<<i) != 0
		last := i == c.IRLength-1
		c.Step(last, tdi)
	}
	c.GoTo(UpdateIR)
	c.GoTo(RunTestIdle)
	return int(c.cycles - start)
}

// ShiftData shifts the given bits through the selected data register and
// returns the bits that came out of TDO plus the cycles consumed.
func (c *Controller) ShiftData(bits []bool) (out []bool, cycles int) {
	start := c.cycles
	c.GoTo(ShiftDR)
	out = make([]bool, len(bits))
	for i, b := range bits {
		last := i == len(bits)-1
		out[i] = c.Step(last, b)
	}
	c.GoTo(UpdateDR)
	c.GoTo(RunTestIdle)
	return out, int(c.cycles - start)
}

// SetupCost estimates the TCK cycles to configure a test session that
// loads nInstructions instructions and shifts setupBits of configuration
// data (e.g. E-RPCT converter ratios and channel-group enables), starting
// from reset.
func SetupCost(irLength, nInstructions, setupBits int) int64 {
	c := New(irLength)
	c.Registers[1] = setupBits
	c.Reset()
	for i := 0; i < nInstructions; i++ {
		c.LoadInstruction(1)
	}
	if setupBits > 0 {
		c.ShiftData(make([]bool, setupBits))
	}
	return c.Cycles()
}
