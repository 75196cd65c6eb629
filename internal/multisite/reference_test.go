package multisite

import "math"

// This file retains the two-pass forms of the throughput model that
// Throughputs was rebuilt from: UniqueThroughput re-running Throughput,
// and the re-test rate recomputing pc^x. They are the executable
// specification of the one-pass model — TestThroughputsMatchReference
// pins it bit for bit to them — and are never called outside tests.

func (p Params) referenceEffectiveTestTime() float64 {
	t := p.ContactTime
	pcAny := 1 - math.Pow(1-math.Pow(p.ContactYield, float64(p.Pins)), float64(p.Sites))
	if p.AbortOnFail {
		t += pcAny * (1 - math.Pow(1-p.Yield, float64(p.Sites))) * p.TestTime
	} else {
		t += pcAny * p.TestTime
	}
	return t
}

func (p Params) referenceThroughput() float64 {
	return 3600 * float64(p.Sites) / (p.IndexTime + p.referenceEffectiveTestTime())
}

func (p Params) referenceRetestRate() float64 {
	return 1 - math.Pow(p.ContactYield, float64(p.Pins))
}

func (p Params) referenceUniqueThroughput() float64 {
	d := p.referenceThroughput()
	if !p.Retest {
		return d
	}
	return d / (1 + p.referenceRetestRate())
}
