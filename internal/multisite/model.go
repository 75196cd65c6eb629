// Package multisite implements the multi-site wafer test throughput model
// of the reproduced paper (Section 4): index time, contact test, abort-on-
// fail, contact yield, re-test, and the resulting devices-per-hour
// throughput.
//
// The scanned text of the paper garbles several equations; this package
// re-derives them from the surrounding prose. The reconstruction:
//
//	t  = tc + P'c · tm                       (Eq. 4.1, no abort-on-fail)
//	P'c = 1 − (1 − pc^x)^n                   (Eq. 4.2)
//	P'm = 1 − (1 − pm)^n                     (Eq. 4.3)
//	ta  = tc + P'c · P'm · tm                (Eq. 4.4, abort-on-fail lower
//	                                          bound under "failing devices
//	                                          take zero test time")
//	Dth = 3600 · n / (ti + t)                (Eq. 4.5)
//	Du  = Dth / (1 + (1 − pc^x))             (Eq. 4.6, unique devices per
//	                                          hour when contact failures are
//	                                          re-tested at most once)
//
// where n is the number of sites, x the number of contacted terminals per
// SOC, pc the per-terminal contact yield, and pm the per-SOC manufacturing
// yield. The manufacturing test only runs when at least one of the n sites
// passed its contact test (hence the P'c factor); under abort-on-fail it
// only runs to completion when at least one site keeps passing (P'm).
package multisite

import (
	"fmt"
	"math"
)

// Params gathers the throughput model inputs.
type Params struct {
	// Sites is the number of dies tested in parallel, n ≥ 1.
	Sites int
	// Pins is the number of contacted terminals per SOC, x: the E-RPCT
	// channels plus test control and clock pins.
	Pins int
	// IndexTime ti and ContactTime tc in seconds.
	IndexTime, ContactTime float64
	// TestTime tm is the manufacturing test application time per SOC in
	// seconds (full-length, before any abort-on-fail reduction).
	TestTime float64
	// ContactYield pc is the probability that a single terminal makes
	// proper contact.
	ContactYield float64
	// Yield pm is the probability that a single SOC passes the
	// manufacturing test.
	Yield float64
	// AbortOnFail aborts the test as soon as every site has failed.
	AbortOnFail bool
	// Retest re-tests devices that failed only their contact test
	// (at most once), reducing unique throughput.
	Retest bool
}

// Validate checks the parameter ranges.
func (p Params) Validate() error {
	if p.Sites < 1 {
		return fmt.Errorf("multisite: need at least 1 site, have %d", p.Sites)
	}
	if p.Pins < 1 {
		return fmt.Errorf("multisite: need at least 1 contacted pin, have %d", p.Pins)
	}
	if p.IndexTime < 0 || p.ContactTime < 0 || p.TestTime < 0 {
		return fmt.Errorf("multisite: negative timing (ti=%g tc=%g tm=%g)",
			p.IndexTime, p.ContactTime, p.TestTime)
	}
	if p.ContactYield < 0 || p.ContactYield > 1 {
		return fmt.Errorf("multisite: contact yield %g outside [0,1]", p.ContactYield)
	}
	if p.Yield < 0 || p.Yield > 1 {
		return fmt.Errorf("multisite: yield %g outside [0,1]", p.Yield)
	}
	return nil
}

// DeviceContactYield returns pc^x: the probability that all x terminals of
// one SOC contact properly.
func DeviceContactYield(pc float64, pins int) float64 {
	return math.Pow(pc, float64(pins))
}

// PContactAny returns P'c (Eq. 4.2): the probability that at least one of
// n SOCs passes its contact test.
func PContactAny(pc float64, pins, n int) float64 {
	return anyOf(DeviceContactYield(pc, pins), n)
}

// PManufAny returns P'm (Eq. 4.3): the probability that at least one of n
// SOCs passes the manufacturing test.
func PManufAny(pm float64, n int) float64 {
	return anyOf(pm, n)
}

// anyOf returns 1 − (1 − q)^n: the probability that at least one of n
// independent trials, each passing with probability q, passes.
func anyOf(q float64, n int) float64 {
	return 1 - math.Pow(1-q, float64(n))
}

// EffectiveTestTime returns the expected time spent on one touchdown after
// contact (Eq. 4.1, or the Eq. 4.4 lower bound when AbortOnFail is set).
func (p Params) EffectiveTestTime() float64 {
	return p.effectiveTestTime(PContactAny(p.ContactYield, p.Pins, p.Sites))
}

// effectiveTestTime is EffectiveTestTime given P'c.
func (p Params) effectiveTestTime(pcAny float64) float64 {
	t := p.ContactTime
	if p.AbortOnFail {
		t += pcAny * PManufAny(p.Yield, p.Sites) * p.TestTime
	} else {
		t += pcAny * p.TestTime
	}
	return t
}

// Throughput returns Dth (Eq. 4.5): devices tested per hour, assuming full
// ATE utilization.
func (p Params) Throughput() float64 {
	dth, _ := p.Throughputs()
	return dth
}

// UniqueThroughput returns Du (Eq. 4.6): unique devices tested per hour.
// Without re-testing it equals Throughput. With re-testing, every
// contact-failing device consumes a second test slot (at most one re-test,
// at most one failing terminal per device per the paper's assumptions), so
// the tested-device stream carries 1 + (1 − pc^x) tests per unique device.
func (p Params) UniqueThroughput() float64 {
	_, du := p.Throughputs()
	return du
}

// Throughputs returns Throughput and UniqueThroughput from one evaluation
// of the model: pc^x is computed once and feeds both P'c and the re-test
// rate 1 − pc^x.
func (p Params) Throughputs() (dth, du float64) {
	return p.ThroughputsFrom(DeviceContactYield(p.ContactYield, p.Pins))
}

// ThroughputsFrom is Throughputs given pc^x, which must equal
// DeviceContactYield(p.ContactYield, p.Pins). core scores every site count
// of a design's curves with it, computing pc^x once per pin count rather
// than once per site count.
func (p Params) ThroughputsFrom(pd float64) (dth, du float64) {
	dth = 3600 * float64(p.Sites) / (p.IndexTime + p.effectiveTestTime(anyOf(pd, p.Sites)))
	if !p.Retest {
		return dth, dth
	}
	return dth, dth / (1 + (1 - pd))
}

// TouchdownTime returns the full per-touchdown time ti + t in seconds.
func (p Params) TouchdownTime() float64 {
	return p.IndexTime + p.EffectiveTestTime()
}
