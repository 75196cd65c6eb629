// Package core implements the paper's primary contribution: the two-step
// algorithm (Section 6) that designs an SOC's on-chip test infrastructure
// for optimal multi-site testing on a given, fixed ATE.
//
// Step 1 designs the channel-group architecture that minimizes the per-SOC
// ATE channel count k (priority) and the vector memory fill (secondary),
// which maximizes the number of sites nmax that fit on the tester. Step 2
// linear-searches the site count n from nmax down to 1, redistributing the
// channels freed by giving up sites over the remaining sites (widening the
// maximally-filled channel group first), and selects the n with maximum
// test throughput. Maximizing sites is not the same as maximizing
// throughput: fewer sites with wider TAMs can test faster per device.
//
// A flattened (non-modular) SOC is the degenerate case of a single module
// (the paper's Problem 2) and flows through the same code path.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"

	"multisite/internal/ate"
	"multisite/internal/multisite"
	"multisite/internal/soc"
	"multisite/internal/tam"
)

// DefaultControlPins is the number of contacted terminals beyond the k
// E-RPCT channels: test clocks, reset, and test-mode control.
const DefaultControlPins = 10

// Config gathers the optimizer inputs: the target test cell (ATE + probe
// station) and the throughput model parameters.
type Config struct {
	// ATE is the target tester (channels, depth, clock, broadcast).
	ATE ate.ATE `json:"ate"`
	// Probe carries the index and contact-test times.
	Probe ate.ProbeStation `json:"probe"`
	// ContactYield pc and Yield pm; both default to 1 when zero.
	ContactYield float64 `json:"contact_yield"`
	Yield        float64 `json:"yield"`
	// AbortOnFail and Retest select the cost-model variants of
	// Section 5.
	AbortOnFail bool `json:"abort_on_fail"`
	Retest      bool `json:"retest"`
	// ControlPins is the number of contacted pins beyond the k channels;
	// negative means DefaultControlPins.
	ControlPins int `json:"control_pins"`
	// TAM tunes the Step 1 design (ablations).
	TAM tam.Options `json:"tam"`
}

// Normalized returns the configuration with defaulted fields resolved
// (zero yields become 1, negative control pins become
// DefaultControlPins) — the canonical form cache keys and snapshots are
// built from, so a request leaving a field zero and one spelling out the
// default address the same cached result.
func (c Config) Normalized() Config { return c.normalized() }

func (c Config) normalized() Config {
	if c.ContactYield == 0 {
		c.ContactYield = 1
	}
	if c.Yield == 0 {
		c.Yield = 1
	}
	if c.ControlPins < 0 {
		c.ControlPins = DefaultControlPins
	}
	return c
}

// SiteEval is the evaluation of one candidate site count.
type SiteEval struct {
	// Sites is the candidate n.
	Sites int `json:"sites"`
	// Channels is the per-site channel count k after redistribution.
	Channels int `json:"channels"`
	// TestCycles is the SOC test length in cycles after redistribution.
	TestCycles int64 `json:"test_cycles"`
	// TestTimeSec is TestCycles at the ATE clock.
	TestTimeSec float64 `json:"test_time_sec"`
	// Throughput is Dth in devices per hour.
	Throughput float64 `json:"throughput"`
	// UniqueThroughput is Du in unique devices per hour (equals
	// Throughput unless re-testing is enabled).
	UniqueThroughput float64 `json:"unique_throughput"`
}

// Result is the outcome of the two-step optimization: its architectures
// and its best site count, but no curve, since Rescore scores any cost
// model's curves from the architectures. Step 2 hands the channels freed
// at each site count to Step 1's groups and never regroups modules, so a
// result keeps each distinct Step 2 architecture as the widths of Step
// 1's groups plus the channel count and test length scoring reads; ArchAt
// builds the architecture at a site count on demand.
type Result struct {
	// SOC is the chip optimized for.
	SOC *soc.SOC
	// Config echoes the normalized configuration.
	Config Config
	// Step1 is the minimal-channel architecture from Step 1.
	Step1 *tam.Architecture
	// MaxSites is nmax implied by Step 1's channel count.
	MaxSites int
	// Best is the optimal evaluation under Config: maximum throughput
	// (unique throughput when re-testing), as Rescore(Config, nil, nil)
	// returns it. ArchAt(Best.Sites) is its architecture.
	Best SiteEval
	// step2 is the Step 2 architecture at every site count, in compact
	// form; ArchAt builds one.
	step2 step2Curve

	// Degraded marks a best-effort result produced under failure — an
	// anytime solve that hit its deadline, or a portfolio whose stronger
	// backend was unavailable — rather than a completed deterministic
	// run. Degraded results are valid designs but must never be cached:
	// retrying the same request later may produce a better answer.
	Degraded bool
	// Optimal marks a Step 1 wire count proven minimal by a completed
	// exact search (directly, or by a portfolio whose exact leg finished
	// or exhausted the lattice without beating the incumbent).
	Optimal bool
}

// Optimize runs the two-step algorithm for the SOC under the configuration.
func Optimize(s *soc.SOC, cfg Config) (*Result, error) {
	return OptimizeCtx(context.Background(), s, cfg)
}

// OptimizeCtx is Optimize with cancellation: a long-lived caller (the
// serving layer's per-request timeout, a cancelled sweep) can abandon an
// optimization between its phases. Cancellation is checked before the
// Step 1 design, before the Step 2 widening sequence, and once per site
// count of that sequence; a cancelled run returns the context's error
// and no partial result.
func OptimizeCtx(ctx context.Context, s *soc.SOC, cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	if err := cfg.Probe.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	step1, err := tam.DesignStep1With(s, cfg.ATE, cfg.TAM)
	if err != nil {
		return nil, err
	}
	return buildResult(ctx, s, cfg, step1)
}

// BuildResult runs the shared downstream of the two-step algorithm — the
// nmax bound, the Step 2 widening sequence, and the best site count — on
// an externally designed Step 1 architecture. It is the seam the
// pluggable solver backends (internal/solve) attach to: the exact
// branch-and-bound and the rectangle-packing baseline each produce their
// own channel-group architecture and feed it through here, so every
// backend's Result is shaped (and scored) identically to the heuristic's.
// The architecture must belong to s and fit cfg.ATE's depth; cfg is
// normalized and its probe validated, exactly as OptimizeCtx does.
func BuildResult(ctx context.Context, s *soc.SOC, cfg Config, step1 *tam.Architecture) (*Result, error) {
	cfg = cfg.normalized()
	if err := cfg.Probe.Validate(); err != nil {
		return nil, err
	}
	return buildResult(ctx, s, cfg, step1)
}

// buildResult is the common tail of OptimizeCtx and BuildResult; cfg is
// already normalized and probe-validated.
func buildResult(ctx context.Context, s *soc.SOC, cfg Config, step1 *tam.Architecture) (*Result, error) {
	k := step1.Channels()
	nmax := cfg.ATE.MaxSites(k)
	if nmax < 1 {
		return nil, fmt.Errorf("soc %s needs k=%d channels; ATE with %d channels cannot host a single site",
			s.Name, k, cfg.ATE.Channels)
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	step2, err := step2Arches(ctx, cfg.ATE, step1, nmax)
	if err != nil {
		return nil, err
	}
	res := &Result{SOC: s, Config: cfg, Step1: step1, MaxSites: nmax, step2: step2}
	res.Best, _, _ = res.Rescore(cfg, nil, nil)
	return res, nil
}

// step2Curve is the Step 2 curve in compact form: one snapshot per
// distinct Step 2 architecture, the width of each of Step 1's groups
// plus the channel count and test length scoring reads.
type step2Curve struct {
	// at[n-1] is the index of the snapshot at n sites, or −1 where the
	// architecture is Step 1's itself (no channel was freed).
	at []int
	// scores[i] is snapshot i's channel count and test length.
	scores []step2Score
	// widths holds the snapshots' group widths in Step 1's group order:
	// snapshot i's are widths[i*g:(i+1)*g] for g groups.
	widths []int
}

// step2Score is what scoring reads of one Step 2 architecture.
type step2Score struct {
	channels int
	cycles   int64
}

// ArchAt returns the Step 1+2 architecture at n sites, for n from 1 to
// MaxSites: Step1 itself where no channel was freed, otherwise a new
// architecture, Step 1's groups refitted at the widths Step 2 gave them
// at n. The caller owns a new architecture; Step1 is shared and
// read-only.
func (r *Result) ArchAt(n int) *tam.Architecture {
	i := r.step2.at[n-1]
	if i < 0 {
		return r.Step1
	}
	g := len(r.Step1.Groups)
	return r.Step1.WithWidths(r.step2.widths[i*g : (i+1)*g])
}

// step2Arches builds the Step 2 architecture per site count: at each n the
// channels freed by giving up sites are redistributed over the remaining
// sites by widening the maximally-filled channel group first.
//
// The widening budget grows monotonically as n decreases, and WidenOnce
// is a deterministic, memoryless greedy — widening to budget b and then
// continuing to b' > b lands in exactly the state widening to b' from
// scratch would. The whole curve is therefore one widening sequence: a
// single running architecture advances from each site count's budget to
// the next and its widths are snapshot per n, turning the curve from
// O(nmax·budget) widening moves into O(max budget). Site counts whose
// budget adds no moves (equal budgets, or a saturated architecture) share
// one snapshot. Every site count from the first with a positive budget
// down to 1 has one, so blocks sized for that many hold the snapshots;
// they are copied to their used length at the end, which keeps the
// allocations of a curve fixed and what a kept design holds small.
// Cancellation is checked once per site count — the widening work
// between checks is bounded by one site count's budget growth.
func step2Arches(ctx context.Context, target ate.ATE, step1 *tam.Architecture, nmax int) (step2Curve, error) {
	c := step2Curve{at: make([]int, nmax)}
	var running *tam.Architecture
	applied, saturated := 0, false
	for n := nmax; n >= 1; n-- {
		if err := ctx.Err(); err != nil {
			return step2Curve{}, err
		}
		budget := target.MaxWiresPerSite(n) - step1.Wires()
		if budget <= 0 {
			c.at[n-1] = -1
			continue
		}
		if running == nil {
			running = step1.Clone()
			c.scores = make([]step2Score, 0, n)
			c.widths = make([]int, 0, n*len(step1.Groups))
		}
		prev := applied
		for applied < budget && !saturated {
			if running.WidenOnce() {
				applied++
			} else {
				saturated = true
			}
		}
		if len(c.scores) == 0 || applied != prev {
			for _, g := range running.Groups {
				c.widths = append(c.widths, g.Width)
			}
			c.scores = append(c.scores, step2Score{running.Channels(), running.TestCycles()})
		}
		c.at[n-1] = len(c.scores) - 1
	}
	c.scores, c.widths = slices.Clone(c.scores), slices.Clone(c.widths)
	return c, nil
}

// ReEvaluate re-scores the already-designed per-site-count architectures
// under a different throughput model (e.g. another contact yield), without
// re-running the architecture design. Only the cost-model fields of cfg
// are honored; the ATE clock and channel budget must match the original
// optimization. It returns the full curve and the best evaluation.
func (r *Result) ReEvaluate(cfg Config) ([]SiteEval, SiteEval) {
	curve := make([]SiteEval, r.MaxSites)
	best, _, _ := r.Rescore(cfg, curve, nil)
	return curve, best
}

// Rescore scores the designed architectures under cfg's cost model, as
// ReEvaluate does, in one pass over the site counts from MaxSites down to
// 1. It writes the Step 1+2 evaluation at n sites to curve[n-1] and the
// Step 1 architecture's to step1Curve[n-1], each only when that slice is
// non-nil (a caller that keeps no curve passes nil), and returns the best
// Step 1+2 evaluation (the Step 2 objective's maximum, the largest site
// count on ties), the gain CurveGain(step1Curve, curve, MaxSites) reports,
// and whether every evaluation of both curves and the gain are finite,
// which is whether the result's snapshot under cfg encodes. Only the
// cost-model fields of cfg are honored, as in ReEvaluate.
//
// One pass costs less than scoring each site count afresh: an
// architecture's channels, test length and pc^x are read once, not once
// per site count (site counts share Step 2 snapshots, each of which
// carries them), and a site count whose Step 2 architecture is Step1
// itself is scored once for both curves. No architecture is built.
//
// With both curves nil only the maxima and finiteness are read, so an
// evaluation is skipped where its throughput ceiling (archModel.ceiling)
// proves that it can raise neither the best nor either throughput
// maximum, and that it is finite: most site counts need no power. A
// snapshot is not even read while a ceiling that needs none of its
// fields rules it out. Calls that fill a curve score every site count.
func (r *Result) Rescore(cfg Config, curve, step1Curve []SiteEval) (best SiteEval, gain float64, finite bool) {
	cfg = cfg.normalized()
	var s1 archModel
	s1.read(r.Step1.Channels(), r.Step1.TestCycles(), &cfg)
	// prune holds where the ceilings are proven (archModel.bounded).
	prune := curve == nil && step1Curve == nil && s1.bounded(&cfg)
	// unread bounds a snapshot not read yet: its touchdown takes at least
	// ti + tc, and its unique throughput is at most its throughput.
	unread := archModel{floor: (cfg.Probe.IndexTime + cfg.Probe.ContactTime) * floorMargin}
	s2, read := s1, -1 // read is the snapshot s2 holds
	best1, best2 := 0.0, 0.0
	nonFinite := 0.0 // the sum of every evaluation's zeroOrNaN
	// keep takes the Step 1+2 evaluation at n: the first, at MaxSites, is
	// the best so far; later ones only where they beat it.
	keep := func(n int, e SiteEval) {
		if curve != nil {
			curve[n-1] = e
		}
		if n == r.MaxSites || e.score(cfg.Retest) > best.score(cfg.Retest) {
			best = e
		}
		// CurveGain's running maxima: a NaN throughput never wins.
		if e.Throughput > best2 {
			best2 = e.Throughput
		}
	}
	for n := r.MaxSites; n >= 1; n-- {
		i := r.step2.at[n-1]
		pruning := prune && n < r.MaxSites
		bestScore := best.score(cfg.Retest)
		// Step 1's architecture at n feeds best1 and, where Step 2 keeps
		// it (i < 0), the Step 1+2 maxima as well.
		if !pruning || s1.ceiling(n) > best1 ||
			i < 0 && (s1.ceiling(n) > best2 || s1.scoreCeiling(n, cfg.Retest) > bestScore) {
			e1 := s1.at(n)
			nonFinite += e1.zeroOrNaN()
			if step1Curve != nil {
				step1Curve[n-1] = e1
			}
			if e1.Throughput > best1 {
				best1 = e1.Throughput
			}
			if i < 0 {
				keep(n, e1)
			}
		}
		if i < 0 {
			continue
		}
		if pruning && i != read && unread.ceiling(n) <= min(best2, bestScore) {
			continue
		}
		if i != read {
			s2.read(r.step2.scores[i].channels, r.step2.scores[i].cycles, &cfg)
			read = i
		}
		if pruning && s2.ceiling(n) <= best2 && s2.scoreCeiling(n, cfg.Retest) <= bestScore {
			continue
		}
		e2 := s2.at(n)
		nonFinite += e2.zeroOrNaN()
		keep(n, e2)
	}
	gain = gainOf(best1, best2)
	return best, gain, nonFinite+gain*0 == 0
}

// score is the Step 2 objective: unique throughput when re-testing is
// modeled, plain throughput otherwise.
func (e SiteEval) score(retest bool) float64 {
	if retest {
		return e.UniqueThroughput
	}
	return e.Throughput
}

// zeroOrNaN is 0 when every float of e is finite and NaN otherwise: x*0
// is 0 (or −0) for a finite x and NaN for ±Inf or NaN, and a sum with a
// NaN term is NaN.
func (e SiteEval) zeroOrNaN() float64 {
	return e.TestTimeSec*0 + e.Throughput*0 + e.UniqueThroughput*0
}

// archModel is what scoring an architecture at any site count reads of
// it under one normalized cost model: its channels and test length, the
// throughput model's inputs, pc^x for its contacted pins, and a lower
// bound on its touchdown time for the ceiling.
type archModel struct {
	channels int
	cycles   int64
	p        multisite.Params // Sites is set by each score
	pd       float64          // multisite.DeviceContactYield(p.ContactYield, p.Pins)
	floor    float64          // at most ti + t at every site count, once bounded holds
}

// read points m at an architecture of k channels and a test length of
// cycles under cfg, for every site count. pc^x carries over from the
// architecture m held before when the pin counts match; a zero m holds
// none.
func (m *archModel) read(k int, cycles int64, cfg *Config) {
	pins := k + cfg.ControlPins
	if m.channels == 0 || pins != m.p.Pins {
		m.pd = multisite.DeviceContactYield(cfg.ContactYield, pins)
	}
	m.channels, m.cycles = k, cycles
	m.p = multisite.Params{
		Pins:         pins,
		IndexTime:    cfg.Probe.IndexTime,
		ContactTime:  cfg.Probe.ContactTime,
		TestTime:     cfg.ATE.SecondsFor(m.cycles),
		ContactYield: cfg.ContactYield,
		Yield:        cfg.Yield,
		AbortOnFail:  cfg.AbortOnFail,
		Retest:       cfg.Retest,
	}
	// P'c and P'm are anyOf(q, n) = 1 − Pow(1 − q, n), which at n = 1 is
	// 1 − (1 − q): Pow(x, 1) is x.
	lo := 1 - (1 - m.pd)
	if cfg.AbortOnFail {
		lo *= 1 - (1 - cfg.Yield)
	}
	m.floor = (m.p.IndexTime + (m.p.ContactTime + lo*m.p.TestTime)) * floorMargin
}

// floorMargin scales every touchdown floor down by far more than the few
// roundings by which two evaluations of one expression can differ where
// Go fuses a multiply and an add into one FMA (arm64, ppc64, s390x).
const floorMargin = 1 - 0x1p-40

// bounded reports whether ceiling's argument holds for the Step 1
// architecture m under cfg: yields in [0, 1] (NaN fails), and index,
// contact and test times finite and non-negative. Step 2's test lengths
// are at most Step 1's, so its snapshots' test times are too.
//
// The argument. The model's touchdown time is ti + (tc + P'c·P'm·tm),
// P'm only under abort-on-fail, and floor is the same expression with
// P'c and P'm at n = 1. For x = 1 − q in [0, 1] and an integer n ≥ 1,
// Go's portable math.Pow multiplies repeated squares of x, each at most
// x, so Pow(x, n) ≤ x and the computed P'(n) = 1 − Pow(x, n) is at least
// the computed P'(1). Correctly rounded +, × and ÷ are monotone in each
// operand, every operand here is non-negative, and a smaller P' can only
// shrink the computed touchdown time: floor is at most the computed one
// at every n, so 3600·n/floor is at least the computed throughput. The
// unique throughput divides that by 1 + (1 − pc^x), at least 1. With
// these inputs a finite ceiling also proves the evaluation finite: its
// throughputs lie in [0, ceiling] and its test time is finite. s390x
// runs an assembly math.Pow, so nothing is pruned there.
func (m *archModel) bounded(cfg *Config) bool {
	unit := func(q float64) bool { return q >= 0 && q <= 1 }
	seconds := func(t float64) bool { return t >= 0 && t <= math.MaxFloat64 }
	return runtime.GOARCH != "s390x" && unit(cfg.ContactYield) && unit(cfg.Yield) &&
		seconds(m.p.IndexTime) && seconds(m.p.ContactTime) && seconds(m.p.TestTime)
}

// ceiling is an upper bound on the throughput m scores at n sites, once
// bounded holds: 3600·n over the touchdown floor, +Inf where the floor
// is not positive.
func (m *archModel) ceiling(n int) float64 {
	if m.floor > 0 {
		return 3600 * float64(n) / m.floor
	}
	return math.Inf(1)
}

// scoreCeiling bounds the Step 2 objective m scores at n sites: the
// unique throughput under re-test divides the throughput by the same
// 1 + (1 − pc^x) the model does.
func (m *archModel) scoreCeiling(n int, retest bool) float64 {
	if retest {
		return m.ceiling(n) / (1 + (1 - m.pd))
	}
	return m.ceiling(n)
}

// at scores the architecture at n sites: the throughput model of
// Section 4 (multisite.Params).
func (m *archModel) at(n int) SiteEval {
	m.p.Sites = n
	dth, du := m.p.ThroughputsFrom(m.pd)
	return SiteEval{
		Sites:            n,
		Channels:         m.channels,
		TestCycles:       m.cycles,
		TestTimeSec:      m.p.TestTime,
		Throughput:       dth,
		UniqueThroughput: du,
	}
}

// EvaluateAt exposes the per-site-count evaluation for a fixed architecture
// (used by the experiment harness for Fig. 7(b)-style sweeps).
func (cfg Config) EvaluateAt(arch *tam.Architecture, n int) SiteEval {
	cfg = cfg.normalized()
	var m archModel
	m.read(arch.Channels(), arch.TestCycles(), &cfg)
	return m.at(n)
}

// CurveGain returns the relative gain of the best throughput on curve over
// the best on base, considering at most the first maxN site counts of
// either curve. A maxN beyond the curve lengths is clamped; a base curve
// with no positive throughput yields 0 (not NaN), so degenerate sweeps
// compare as "no gain".
func CurveGain(base, curve []SiteEval, maxN int) float64 {
	best1, best2 := 0.0, 0.0
	for n := 1; n <= maxN; n++ {
		if n <= len(base) {
			if t := base[n-1].Throughput; t > best1 {
				best1 = t
			}
		}
		if n <= len(curve) {
			if t := curve[n-1].Throughput; t > best2 {
				best2 = t
			}
		}
	}
	return gainOf(best1, best2)
}

// gainOf is the relative gain of best2 over best1, 0 when best1 is 0.
func gainOf(best1, best2 float64) float64 {
	if best1 == 0 {
		return 0
	}
	return best2/best1 - 1
}
