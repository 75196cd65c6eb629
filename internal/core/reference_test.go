package core

import (
	"math"

	"multisite/internal/ate"
	"multisite/internal/multisite"
	"multisite/internal/tam"
)

// This file retains the per-site-count loops that Result.Rescore replaced:
// buildResult's curve loop, ReEvaluate's, the Step 1 curve the engine and
// the server built with EvaluateAt per site count and CurveGain, and the
// server's finiteness check of a re-score. Each site count is scored
// afresh, pc^x included, as Config.evaluate did. It also retains the
// Step 2 curve as full architectures, one clone per distinct widening
// budget, which the width snapshots replaced. They are the executable
// specification of the one-pass kernel and the snapshots —
// TestRescoreMatchesReference and FuzzRescoreMatchesReference pin both
// bit for bit to them — and are never called outside tests.

// referenceStep2Arches is the Step 2 curve as full architectures:
// arches[n-1] is the architecture at n sites, step1 itself where no
// channel is freed, otherwise a clone of one running widening sequence
// taken wherever a site count's budget added moves, shared by the site
// counts whose budgets add none.
func referenceStep2Arches(target ate.ATE, step1 *tam.Architecture, nmax int) []*tam.Architecture {
	arches := make([]*tam.Architecture, nmax)
	var running, snapshot *tam.Architecture
	applied, saturated := 0, false
	for n := nmax; n >= 1; n-- {
		budget := target.MaxWiresPerSite(n) - step1.Wires()
		if budget <= 0 {
			arches[n-1] = step1
			continue
		}
		if running == nil {
			running = step1.Clone()
		}
		prev := applied
		for applied < budget && !saturated {
			if running.WidenOnce() {
				applied++
			} else {
				saturated = true
			}
		}
		if snapshot == nil || applied != prev {
			snapshot = running.Clone()
		}
		arches[n-1] = snapshot
	}
	return arches
}

// referenceEvaluate scores arch at n sites from scratch.
func (cfg Config) referenceEvaluate(arch *tam.Architecture, n int) SiteEval {
	k := arch.Channels()
	cycles := arch.TestCycles()
	tm := cfg.ATE.SecondsFor(cycles)
	p := multisite.Params{
		Sites:        n,
		Pins:         k + cfg.ControlPins,
		IndexTime:    cfg.Probe.IndexTime,
		ContactTime:  cfg.Probe.ContactTime,
		TestTime:     tm,
		ContactYield: cfg.ContactYield,
		Yield:        cfg.Yield,
		AbortOnFail:  cfg.AbortOnFail,
		Retest:       cfg.Retest,
	}
	dth, du := p.Throughputs()
	return SiteEval{
		Sites:            n,
		Channels:         k,
		TestCycles:       cycles,
		TestTimeSec:      tm,
		Throughput:       dth,
		UniqueThroughput: du,
	}
}

// referenceBuild is buildResult's loop over arches, r's Step 2 curve
// from referenceStep2Arches, under r's own (normalized) configuration.
func (r *Result) referenceBuild(arches []*tam.Architecture) (curve, step1Curve []SiteEval, best SiteEval, bestArch *tam.Architecture) {
	cfg := r.Config
	curve = make([]SiteEval, r.MaxSites)
	step1Curve = make([]SiteEval, r.MaxSites)
	for n := r.MaxSites; n >= 1; n-- {
		step1Curve[n-1] = cfg.referenceEvaluate(r.Step1, n)
		curve[n-1] = cfg.referenceEvaluate(arches[n-1], n)

		better := curve[n-1].score(cfg.Retest) > best.score(cfg.Retest)
		if bestArch == nil || better {
			best = curve[n-1]
			bestArch = arches[n-1]
		}
	}
	return curve, step1Curve, best, bestArch
}

// referenceReEvaluate is ReEvaluate's loop over arches.
func (r *Result) referenceReEvaluate(arches []*tam.Architecture, cfg Config) ([]SiteEval, SiteEval) {
	cfg = cfg.normalized()
	curve := make([]SiteEval, r.MaxSites)
	var best SiteEval
	for n := r.MaxSites; n >= 1; n-- {
		curve[n-1] = cfg.referenceEvaluate(arches[n-1], n)
		if best.Sites == 0 || curve[n-1].score(cfg.Retest) > best.score(cfg.Retest) {
			best = curve[n-1]
		}
	}
	return curve, best
}

// referenceStep1Curve is the Step 1 curve as the engine and the server
// built it, one EvaluateAt per site count.
func (r *Result) referenceStep1Curve(cfg Config) []SiteEval {
	cfg = cfg.normalized()
	curve := make([]SiteEval, r.MaxSites)
	for n := 1; n <= r.MaxSites; n++ {
		curve[n-1] = cfg.referenceEvaluate(r.Step1, n)
	}
	return curve
}

// referenceFinite is the server's check that a re-score's snapshot
// encodes: no NaN or ±Inf in either curve or the gain.
func referenceFinite(curve, step1Curve []SiteEval, gain float64) bool {
	for _, evals := range [...][]SiteEval{curve, step1Curve} {
		for _, e := range evals {
			for _, f := range [...]float64{e.TestTimeSec, e.Throughput, e.UniqueThroughput} {
				if math.IsNaN(f) || math.IsInf(f, 0) {
					return false
				}
			}
		}
	}
	return !math.IsNaN(gain) && !math.IsInf(gain, 0)
}
