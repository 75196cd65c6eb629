package tap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestResetFromAnyState(t *testing.T) {
	// Five TMS-high cycles reach Test-Logic-Reset from every state.
	for s := State(0); s < numStates; s++ {
		c := New(4)
		c.state = s
		c.Reset()
		if c.state != TestLogicReset {
			t.Errorf("from %v: reset landed in %v", s, c.state)
		}
	}
}

func TestStateGraphSpotChecks(t *testing.T) {
	// The canonical walk: reset → idle → Shift-DR.
	c := New(4)
	steps := []struct {
		tms  bool
		want State
	}{
		{false, RunTestIdle},
		{true, SelectDRScan},
		{false, CaptureDR},
		{false, ShiftDR},
		{false, ShiftDR},
		{true, Exit1DR},
		{true, UpdateDR},
		{true, SelectDRScan},
		{true, SelectIRScan},
		{false, CaptureIR},
		{false, ShiftIR},
		{true, Exit1IR},
		{false, PauseIR},
		{true, Exit2IR},
		{false, ShiftIR},
		{true, Exit1IR},
		{true, UpdateIR},
		{false, RunTestIdle},
	}
	for i, st := range steps {
		c.Step(st.tms, false)
		if c.state != st.want {
			t.Fatalf("step %d: state %v, want %v", i, c.state, st.want)
		}
	}
}

func TestStateNames(t *testing.T) {
	if TestLogicReset.String() != "Test-Logic-Reset" || ShiftDR.String() != "Shift-DR" {
		t.Error("state names wrong")
	}
	if State(99).String() == "" {
		t.Error("out-of-range state should still render")
	}
}

func TestGoToShortestPaths(t *testing.T) {
	// Known shortest path lengths in the 1149.1 graph.
	cases := []struct {
		from, to State
		cycles   int
	}{
		{TestLogicReset, RunTestIdle, 1},
		{RunTestIdle, ShiftDR, 3},
		{RunTestIdle, ShiftIR, 4},
		{ShiftDR, UpdateDR, 2},
		{ShiftDR, ShiftDR, 0},
	}
	for _, cse := range cases {
		c := New(4)
		c.state = cse.from
		if got := c.GoTo(cse.to); got != cse.cycles {
			t.Errorf("%v → %v took %d cycles, want %d", cse.from, cse.to, got, cse.cycles)
		}
		if c.state != cse.to {
			t.Errorf("%v → %v landed in %v", cse.from, cse.to, c.state)
		}
	}
}

func TestLoadInstruction(t *testing.T) {
	c := New(6)
	c.Reset()
	c.LoadInstruction(0b101101)
	if c.ir != 0b101101 {
		t.Errorf("IR = %06b, want 101101", c.ir)
	}
	if c.state != RunTestIdle {
		t.Errorf("ended in %v", c.state)
	}
	// A second load replaces the first.
	c.LoadInstruction(0b000011)
	if c.ir != 0b000011 {
		t.Errorf("IR = %06b, want 000011", c.ir)
	}
}

func TestResetClearsIR(t *testing.T) {
	c := New(4)
	c.Reset()
	c.LoadInstruction(0xF)
	c.Reset()
	if c.ir != 0 {
		t.Errorf("IR after reset = %x", c.ir)
	}
}

func TestBypassRegisterDelay(t *testing.T) {
	// An unknown instruction selects the 1-bit bypass: data emerges
	// delayed by exactly one bit.
	c := New(4)
	c.Reset()
	c.LoadInstruction(0xA) // not registered → bypass
	in := []bool{true, false, true, true, false}
	out, _ := c.ShiftData(in)
	// out[0] is the captured bypass bit (false); out[i] = in[i-1].
	if out[0] {
		t.Error("bypass capture bit should be 0")
	}
	for i := 1; i < len(in); i++ {
		if out[i] != in[i-1] {
			t.Errorf("bit %d: got %v, want %v", i, out[i], in[i-1])
		}
	}
}

func TestShiftDataThroughWideRegister(t *testing.T) {
	c := New(4)
	c.Registers[0x3] = 8
	c.Reset()
	c.LoadInstruction(0x3)
	in := make([]bool, 16)
	for i := range in {
		in[i] = i%3 == 0
	}
	out, cycles := c.ShiftData(in)
	// After 8 bits of capture zeros, the input reappears shifted by 8.
	for i := 8; i < 16; i++ {
		if out[i] != in[i-8] {
			t.Errorf("bit %d: got %v, want %v", i, out[i], in[i-8])
		}
	}
	if cycles < 16 {
		t.Errorf("cycles = %d, want ≥ 16", cycles)
	}
}

func TestSetupCostScales(t *testing.T) {
	small := SetupCost(8, 1, 32)
	large := SetupCost(8, 3, 512)
	if small <= 0 || large <= small {
		t.Errorf("setup costs: small=%d large=%d", small, large)
	}
	// The paper's implicit assumption: TAP setup is negligible against
	// a multi-million-cycle scan test.
	if large > 2000 {
		t.Errorf("setup cost %d cycles is implausibly large", large)
	}
}

func TestPropertyGoToAlwaysReaches(t *testing.T) {
	f := func(fromRaw, toRaw uint8) bool {
		from := State(int(fromRaw) % int(numStates))
		to := State(int(toRaw) % int(numStates))
		c := New(4)
		c.state = from
		c.GoTo(to)
		return c.state == to
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyIRRoundTrip(t *testing.T) {
	f := func(code uint16, lenRaw uint8) bool {
		irLen := 2 + int(lenRaw)%14
		c := New(irLen)
		c.Reset()
		want := uint64(code) & ((1 << irLen) - 1)
		c.LoadInstruction(want)
		return c.ir == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDataShiftPreservesStream(t *testing.T) {
	// Through an n-bit register, output bit i (i ≥ n) equals input
	// bit i−n, for random registers and streams.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		c := New(5)
		c.Registers[0x1] = n
		c.Reset()
		c.LoadInstruction(0x1)
		in := make([]bool, n+rng.Intn(40))
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		out, _ := c.ShiftData(in)
		for i := n; i < len(in); i++ {
			if out[i] != in[i-n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
