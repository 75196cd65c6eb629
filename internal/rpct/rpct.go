// Package rpct designs the Enhanced Reduced-Pin-Count-Test (E-RPCT)
// wrapper of Vranken et al., "Enhanced Reduced Pin-Count Test for Full
// Scan Design" (ITC 2001) — reference [9] of the reproduced paper.
//
// An E-RPCT wrapper converts k external test terminals (k/2 inputs and
// k/2 outputs, contacted by the ATE during wafer probing) into s internal
// test inputs and outputs feeding the on-chip TAMs, for any s ≥ k/2. On
// the stimulus side each external input drives ⌈s/(k/2)⌉ internal TAM
// wires through a serial-to-parallel converter; on the response side a
// parallel-to-serial converter funnels the internal wires back out. All
// other functional pins are served by the boundary-scan chain and are not
// contacted during wafer test, which is what enables massive multi-site
// probing.
package rpct

import (
	"fmt"
	"io"
	"strings"

	"multisite/internal/soc"
	"multisite/internal/tam"
)

// Wrapper is a designed E-RPCT wrapper for one SOC.
type Wrapper struct {
	// SOCName names the wrapped chip.
	SOCName string
	// ExternalIn and ExternalOut are the contacted test channels per
	// direction; the total channel count k = ExternalIn + ExternalOut.
	ExternalIn, ExternalOut int
	// InternalWires is the total internal TAM width s the wrapper
	// serves (the sum of all channel-group widths).
	InternalWires int
	// ConvertRatio is ⌈InternalWires / ExternalIn⌉: the
	// serialization factor of the k-to-s converter. A ratio of 1 means
	// the wrapper is a plain RPCT pass-through.
	ConvertRatio int
	// TAMWidths lists the internal channel-group widths served.
	TAMWidths []int
	// BoundaryCells is the length of the boundary-scan chain: one cell
	// per functional pin not contacted during wafer test.
	BoundaryCells int
	// ControlPins are the always-contacted test control terminals.
	ControlPins []string
}

// ControlPinSet is the standard control interface of an E-RPCT wrapper:
// IEEE 1149.1 TAP plus test clock and reset.
var ControlPinSet = []string{"TCK", "TMS", "TDI", "TDO", "TRST_N", "TESTCLK", "RST_N", "TESTMODE", "SE", "CLK"}

// Design derives the E-RPCT wrapper for an SOC whose internal test
// architecture is arch, given a per-site channel budget k (even, ≥ 2).
// functionalPins is the SOC's total functional pin count, used to size the
// boundary-scan chain; if zero it is estimated from the top-level module
// (ID 0) or, failing that, from the sum of module terminals.
func Design(arch *tam.Architecture, k, functionalPins int) (*Wrapper, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("rpct: channel count k=%d must be even and at least 2", k)
	}
	s := arch.Wires()
	if s == 0 {
		return nil, fmt.Errorf("rpct: architecture has no TAM wires")
	}
	half := k / 2
	if half > s {
		// The E-RPCT wrapper converts k/2 externals into s ≥ k/2
		// internals; excess channels are left unconnected.
		half = s
	}
	w := &Wrapper{
		SOCName:       arch.SOC.Name,
		ExternalIn:    half,
		ExternalOut:   half,
		InternalWires: s,
		ConvertRatio:  (s + half - 1) / half,
		ControlPins:   append([]string(nil), ControlPinSet...),
	}
	for _, g := range arch.Groups {
		w.TAMWidths = append(w.TAMWidths, g.Width)
	}
	if functionalPins == 0 {
		functionalPins = estimatePins(arch.SOC)
	}
	w.BoundaryCells = functionalPins
	return w, nil
}

// estimatePins estimates the SOC's functional pin count from the top-level
// module when present, otherwise conservatively from the largest module.
func estimatePins(s *soc.SOC) int {
	if top := s.Module(0); top != nil && top.Terminals() > 0 {
		return top.Terminals()
	}
	max := 0
	for i := range s.Modules {
		if t := s.Modules[i].Terminals(); t > max {
			max = t
		}
	}
	// A chip's pins are of the order of its largest core's terminals
	// plus power/control; double as a conservative estimate.
	return 2 * max
}

// ContactedPins returns the number of probe-contacted terminals during
// wafer test: the k test channels plus the control pins. This is the x of
// the paper's contact-yield model.
func (w *Wrapper) ContactedPins() int {
	return w.ExternalIn + w.ExternalOut + len(w.ControlPins)
}

// Overhead estimates the DfT silicon overhead of the wrapper in flip-flops
// and 2-input-gate equivalents. Each boundary cell costs one flop and ~4
// gates; each converter stage costs one flop and ~3 gates per internal
// wire; the bypass and control logic cost a small constant.
func (w *Wrapper) Overhead() (flops, gates int) {
	flops = w.BoundaryCells + w.InternalWires*2
	gates = w.BoundaryCells*4 + w.InternalWires*6 + 64
	return flops, gates
}

// WriteNetlist emits a human-readable structural description of the
// wrapper (demultiplexer trees, converter registers, boundary segments),
// the artifact a DfT engineer would hand to synthesis.
func (w *Wrapper) WriteNetlist(out io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "// E-RPCT wrapper for %s\n", w.SOCName)
	fmt.Fprintf(&b, "module erpct_wrapper_%s (\n", sanitize(w.SOCName))
	fmt.Fprintf(&b, "  input  wire [%d:0] ext_si,   // %d external stimulus channels\n",
		w.ExternalIn-1, w.ExternalIn)
	fmt.Fprintf(&b, "  output wire [%d:0] ext_so,   // %d external response channels\n",
		w.ExternalOut-1, w.ExternalOut)
	for _, p := range w.ControlPins {
		fmt.Fprintf(&b, "  input  wire %s,\n", strings.ToLower(p))
	}
	fmt.Fprintf(&b, "  inout  wire [%d:0] func_pins // boundary-scanned, not probed\n", w.BoundaryCells-1)
	fmt.Fprintf(&b, ");\n")
	fmt.Fprintf(&b, "  // %d-to-%d stimulus converter, ratio %d\n",
		w.ExternalIn, w.InternalWires, w.ConvertRatio)
	fmt.Fprintf(&b, "  wire [%d:0] tam_si;\n  wire [%d:0] tam_so;\n",
		w.InternalWires-1, w.InternalWires-1)
	for i := 0; i < w.ExternalIn; i++ {
		lo := i * w.ConvertRatio
		hi := lo + w.ConvertRatio - 1
		if hi >= w.InternalWires {
			hi = w.InternalWires - 1
		}
		if lo >= w.InternalWires {
			break
		}
		fmt.Fprintf(&b, "  erpct_s2p #(.RATIO(%d)) u_s2p_%d (.si(ext_si[%d]), .po(tam_si[%d:%d]), .clk(testclk));\n",
			hi-lo+1, i, i, hi, lo)
	}
	for i := 0; i < w.ExternalOut; i++ {
		lo := i * w.ConvertRatio
		hi := lo + w.ConvertRatio - 1
		if hi >= w.InternalWires {
			hi = w.InternalWires - 1
		}
		if lo >= w.InternalWires {
			break
		}
		fmt.Fprintf(&b, "  erpct_p2s #(.RATIO(%d)) u_p2s_%d (.pi(tam_so[%d:%d]), .so(ext_so[%d]), .clk(testclk));\n",
			hi-lo+1, i, hi, lo, i)
	}
	off := 0
	for gi, tw := range w.TAMWidths {
		fmt.Fprintf(&b, "  // channel group %d: %d wires tam[%d:%d]\n", gi, tw, off+tw-1, off)
		off += tw
	}
	fmt.Fprintf(&b, "  erpct_bscan #(.CELLS(%d)) u_bscan (.pins(func_pins), .tck(tck), .tms(tms), .tdi(tdi), .tdo(tdo));\n",
		w.BoundaryCells)
	fmt.Fprintf(&b, "endmodule\n")
	_, err := io.WriteString(out, b.String())
	return err
}

func sanitize(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}
