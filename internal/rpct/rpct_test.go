package rpct

import (
	"fmt"
	"strings"
	"testing"

	"multisite/internal/ate"
	"multisite/internal/soc"
	"multisite/internal/tam"
)

func testArch(t *testing.T) *tam.Architecture {
	t.Helper()
	s := &soc.SOC{Name: "chip-1", Modules: []soc.Module{
		{ID: 0, Name: "top", Inputs: 120, Outputs: 80},
		{ID: 1, Inputs: 32, Outputs: 32, Patterns: 12},
		{ID: 2, Inputs: 35, Outputs: 2, Patterns: 75, ScanChains: soc.ChainsOfLengths(32)},
		{ID: 3, Inputs: 36, Outputs: 39, Patterns: 105, ScanChains: soc.ChainsOfLengths(54, 53, 52, 52)},
	}}
	a, err := tam.DesignStep1(s, ate.ATE{Channels: 64, Depth: 50_000, ClockHz: 5e6})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestDesignBasics(t *testing.T) {
	arch := testArch(t)
	k := arch.Channels()
	w, err := Design(arch, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("wrapper invalid: %v", err)
	}
	if got := w.ExternalIn + w.ExternalOut; got != k {
		t.Errorf("channels = %d, want %d", got, k)
	}
	if w.InternalWires != arch.Wires() {
		t.Errorf("InternalWires = %d, want %d", w.InternalWires, arch.Wires())
	}
	// k external channels drive exactly the architecture wires: ratio 1.
	if w.ConvertRatio != 1 {
		t.Errorf("ConvertRatio = %d, want 1", w.ConvertRatio)
	}
	// Boundary chain sized from the declared top-level pins.
	if w.BoundaryCells != 200 {
		t.Errorf("BoundaryCells = %d, want 200", w.BoundaryCells)
	}
}

func TestDesignNarrowInterface(t *testing.T) {
	// Fewer external channels than TAM wires: the converter serializes.
	arch := testArch(t)
	if arch.Wires() < 3 {
		// Force a wider architecture by shrinking the depth.
		s := arch.SOC
		var err error
		arch, err = tam.DesignStep1(s, ate.ATE{Channels: 64, Depth: 8_000, ClockHz: 5e6})
		if err != nil {
			t.Fatal(err)
		}
	}
	if arch.Wires() < 3 {
		t.Fatalf("test architecture too narrow: %d wires", arch.Wires())
	}
	w, err := Design(arch, 4, 300)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if w.ExternalIn != 2 || w.ExternalOut != 2 {
		t.Errorf("externals = %d/%d, want 2/2", w.ExternalIn, w.ExternalOut)
	}
	wantRatio := (arch.Wires() + 1) / 2
	if w.ConvertRatio != wantRatio {
		t.Errorf("ConvertRatio = %d, want %d", w.ConvertRatio, wantRatio)
	}
	if w.BoundaryCells != 300 {
		t.Errorf("BoundaryCells = %d, want 300", w.BoundaryCells)
	}
}

func TestDesignWideInterfaceClamped(t *testing.T) {
	// More channels than wires: the wrapper only connects what exists.
	arch := testArch(t)
	w, err := Design(arch, 2*arch.Wires()+10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.ExternalIn != arch.Wires() {
		t.Errorf("ExternalIn = %d, want %d", w.ExternalIn, arch.Wires())
	}
	if w.ConvertRatio != 1 {
		t.Errorf("ConvertRatio = %d, want 1", w.ConvertRatio)
	}
}

func TestDesignErrors(t *testing.T) {
	arch := testArch(t)
	if _, err := Design(arch, 3, 0); err == nil {
		t.Error("odd k accepted")
	}
	if _, err := Design(arch, 0, 0); err == nil {
		t.Error("zero k accepted")
	}
}

func TestContactedPins(t *testing.T) {
	arch := testArch(t)
	w, err := Design(arch, arch.Channels(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := arch.Channels() + len(ControlPinSet)
	if got := w.ContactedPins(); got != want {
		t.Errorf("ContactedPins = %d, want %d", got, want)
	}
}

func TestOverheadScalesWithBoundary(t *testing.T) {
	arch := testArch(t)
	small, _ := Design(arch, arch.Channels(), 100)
	large, _ := Design(arch, arch.Channels(), 1000)
	fs, gs := small.Overhead()
	fl, gl := large.Overhead()
	if fl <= fs || gl <= gs {
		t.Errorf("overhead did not grow with boundary: (%d,%d) vs (%d,%d)", fs, gs, fl, gl)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	arch := testArch(t)
	w, err := Design(arch, arch.Channels(), 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := *w
	bad.InternalWires++
	if err := bad.Validate(); err == nil {
		t.Error("wire-sum corruption accepted")
	}
	bad2 := *w
	bad2.ExternalOut++
	if err := bad2.Validate(); err == nil {
		t.Error("asymmetric wrapper accepted")
	}
}

func TestWriteNetlist(t *testing.T) {
	arch := testArch(t)
	w, err := Design(arch, 8, 150)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := w.WriteNetlist(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"module erpct_wrapper_chip_1",
		"erpct_s2p",
		"erpct_p2s",
		"erpct_bscan #(.CELLS(150))",
		"endmodule",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("netlist missing %q:\n%s", want, out)
		}
	}
	// One converter per external channel per direction.
	if got := strings.Count(out, "erpct_s2p"); got != w.ExternalIn {
		t.Errorf("s2p instances = %d, want %d", got, w.ExternalIn)
	}
}

func TestEstimatePinsFallback(t *testing.T) {
	s := &soc.SOC{Name: "np", Modules: []soc.Module{
		{ID: 1, Inputs: 40, Outputs: 20, Patterns: 5},
	}}
	a, err := tam.DesignStep1(s, ate.ATE{Channels: 32, Depth: 10_000, ClockHz: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Design(a, a.Channels(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// No top-level module: estimate 2 × largest module terminals.
	if w.BoundaryCells != 120 {
		t.Errorf("BoundaryCells = %d, want 120", w.BoundaryCells)
	}
}

// Validate checks the wrapper's internal consistency.
func (w *Wrapper) Validate() error {
	if w.ExternalIn < 1 || w.ExternalOut < 1 {
		return fmt.Errorf("rpct: wrapper needs at least one channel per direction")
	}
	if w.ExternalIn != w.ExternalOut {
		return fmt.Errorf("rpct: asymmetric wrapper %d in / %d out", w.ExternalIn, w.ExternalOut)
	}
	if w.InternalWires < w.ExternalIn {
		return fmt.Errorf("rpct: internal wires %d fewer than external inputs %d",
			w.InternalWires, w.ExternalIn)
	}
	sum := 0
	for _, tw := range w.TAMWidths {
		sum += tw
	}
	if sum != w.InternalWires {
		return fmt.Errorf("rpct: TAM widths sum %d != internal wires %d", sum, w.InternalWires)
	}
	if want := (w.InternalWires + w.ExternalIn - 1) / w.ExternalIn; w.ConvertRatio != want {
		return fmt.Errorf("rpct: convert ratio %d != expected %d", w.ConvertRatio, want)
	}
	return nil
}
