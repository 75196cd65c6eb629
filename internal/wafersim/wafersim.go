// Package wafersim is a Monte-Carlo simulator of the multi-site wafer test
// floor. It draws per-touchdown contact and manufacturing outcomes,
// applies the abort-on-fail and re-test policies, and measures the
// empirical throughput — the quantity the analytic model of
// internal/multisite predicts in closed form. The integration tests use it
// to validate Equations 4.1–4.6 of the reproduced paper end to end.
package wafersim

import (
	"fmt"
	"math/rand"

	"multisite/internal/multisite"
)

// Config parameterizes one simulated production run.
type Config struct {
	// Params are the analytic model inputs being validated.
	Params multisite.Params
	// Touchdowns is the number of probe touchdowns to simulate.
	Touchdowns int
	// Seed makes the run deterministic.
	Seed int64
}

// Stats is the empirical outcome of a simulated run.
type Stats struct {
	// Touchdowns simulated.
	Touchdowns int
	// Devices contacted (Touchdowns × sites).
	Devices int
	// ContactFails counts devices that failed the contact test.
	ContactFails int
	// ManufFails counts devices that failed the manufacturing test
	// (among those that passed contact).
	ManufFails int
	// Retests counts re-test slots consumed by contact failures.
	Retests int
	// TotalHours is the simulated wall-clock time.
	TotalHours float64
	// Throughput is the empirical devices/hour.
	Throughput float64
	// UniqueThroughput is the empirical unique devices/hour: devices
	// minus the re-test slots, per hour.
	UniqueThroughput float64
	// MeanTestTime is the average per-touchdown manufacturing test
	// time actually spent, in seconds.
	MeanTestTime float64
}

// Run simulates the production run.
func Run(cfg Config) (*Stats, error) {
	p := cfg.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.Touchdowns < 1 {
		return nil, fmt.Errorf("wafersim: need at least one touchdown")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pcDevice := multisite.DeviceContactYield(p.ContactYield, p.Pins)

	st := &Stats{Touchdowns: cfg.Touchdowns}
	var totalSec, testSec float64
	// Contact-failing devices re-enter the stream once (the paper's
	// "re-tested at most once" premise), consuming future test slots.
	// pendingRetests is that queue; fresh devices fill the remaining
	// slots, so unique throughput emerges from the slot accounting
	// rather than being assumed.
	pendingRetests := 0
	uniqueDevices := 0
	for td := 0; td < cfg.Touchdowns; td++ {
		totalSec += p.IndexTime + p.ContactTime
		contactPassCount := 0
		for s := 0; s < p.Sites; s++ {
			st.Devices++
			isRetest := false
			if pendingRetests > 0 {
				pendingRetests--
				isRetest = true
				st.Retests++
			} else {
				uniqueDevices++
			}
			if rng.Float64() < pcDevice {
				contactPassCount++
			} else {
				st.ContactFails++
				if p.Retest && !isRetest {
					pendingRetests++
				}
			}
		}
		if contactPassCount == 0 {
			// No site contacted: manufacturing test skipped.
			continue
		}
		// Manufacturing outcomes for the contacted sites.
		anyPass := false
		for s := 0; s < contactPassCount; s++ {
			if rng.Float64() < p.Yield {
				anyPass = true
			} else {
				st.ManufFails++
			}
		}
		t := p.TestTime
		if p.AbortOnFail && !anyPass {
			// All contacted sites fail; under the paper's
			// zero-time lower-bound assumption the test costs
			// nothing.
			t = 0
		}
		totalSec += t
		testSec += t
	}
	st.TotalHours = totalSec / 3600
	st.Throughput = float64(st.Devices) / st.TotalHours
	st.UniqueThroughput = float64(uniqueDevices) / st.TotalHours
	st.MeanTestTime = testSec / float64(cfg.Touchdowns)
	return st, nil
}
