// Package finaltest models the second stage of the paper's Section 3 test
// flow: final ("packaged IC") test. At final test all pins of the package
// are contacted, so the multi-site count is limited by the ATE channel
// count divided by the full pin count — and additionally by the device
// handler's parallelism — rather than by the narrow E-RPCT interface that
// makes wafer test so parallel. Optionally the internal circuitry is
// re-tested, through all pins or through the E-RPCT subset.
//
// The package reuses the wafer-test throughput machinery with the
// final-test constraints, so a complete flow (wafer sort + final test) can
// be costed end to end.
package finaltest

import (
	"multisite/internal/ate"
	"multisite/internal/multisite"
)

// Config describes the final-test stage.
type Config struct {
	// ATE is the tester used at final test.
	ATE ate.ATE
	// PackagePins is the full pin count of the packaged SOC; all are
	// contacted.
	PackagePins int
	// HandlerSites is the device handler's parallelism limit (pick-and-
	// place capacity); 0 means unlimited.
	HandlerSites int
	// IndexTime is the handler index time in seconds (typically longer
	// than a wafer prober's).
	IndexTime float64
	// ContactTime is the continuity/contact test time in seconds.
	ContactTime float64
	// IOTestTime is the parametric/functional IO test in seconds; it
	// is the mandatory part of final test.
	IOTestTime float64
	// RetestInternal re-applies the internal scan test at final test.
	RetestInternal bool
	// InternalViaRPCT applies the optional internal re-test through the
	// E-RPCT subset (k channels) instead of all pins; irrelevant unless
	// RetestInternal.
	InternalViaRPCT bool
	// InternalTestTime is the internal scan test time in seconds (from
	// the wafer-test architecture).
	InternalTestTime float64
	// ContactYield and Yield parallel the wafer model; final-test
	// contact yield is near-perfect (sockets, not probes).
	ContactYield, Yield float64
}

// MaxSites returns the final-test multi-site count: ATE channels divided
// by the full pin count, capped by the handler.
func (c Config) MaxSites() int {
	n := c.ATE.Channels / c.PackagePins
	if c.HandlerSites > 0 && n > c.HandlerSites {
		n = c.HandlerSites
	}
	return n
}

// TestTime returns the per-device test time in seconds: the IO test plus
// any internal re-test.
func (c Config) TestTime() float64 {
	t := c.IOTestTime
	if c.RetestInternal {
		t += c.InternalTestTime
	}
	return t
}

// Params assembles the throughput model inputs for n sites (n ≤ MaxSites).
func (c Config) Params(n int) multisite.Params {
	pc, pm := c.ContactYield, c.Yield
	if pc == 0 {
		pc = 1
	}
	if pm == 0 {
		pm = 1
	}
	return multisite.Params{
		Sites:        n,
		Pins:         c.PackagePins,
		IndexTime:    c.IndexTime,
		ContactTime:  c.ContactTime,
		TestTime:     c.TestTime(),
		ContactYield: pc,
		Yield:        pm,
	}
}

// Throughput returns devices per hour at the maximum site count, or 0 if
// the tester cannot host a single packaged device.
func (c Config) Throughput() float64 {
	n := c.MaxSites()
	if n < 1 {
		return 0
	}
	return c.Params(n).Throughput()
}

// FlowStage summarizes one stage of the two-stage flow.
type FlowStage struct {
	// Name labels the stage ("wafer" or "final").
	Name string
	// Sites is the stage's multi-site count.
	Sites int
	// Throughput is the stage's devices per hour.
	Throughput float64
}

// Flow combines wafer sort and final test: the end-to-end capacity is
// bottlenecked by the slower stage (each device passes both).
type Flow struct {
	// Wafer and Final are the two stages.
	Wafer, Final FlowStage
}

// Bottleneck returns the limiting stage.
func (f Flow) Bottleneck() FlowStage {
	if f.Wafer.Throughput <= f.Final.Throughput {
		return f.Wafer
	}
	return f.Final
}

// TestersForBalance returns how many final-test cells are needed per wafer
// cell to keep final test from bottlenecking (rounded up), illustrating
// why the narrow-interface wafer stage is so valuable.
func (f Flow) TestersForBalance() int {
	if f.Final.Throughput <= 0 {
		return 0
	}
	n := int(f.Wafer.Throughput / f.Final.Throughput)
	if float64(n)*f.Final.Throughput < f.Wafer.Throughput {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}
