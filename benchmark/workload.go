package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"multisite/internal/benchdata"
	"multisite/internal/cli"
	"multisite/internal/server"
	"multisite/internal/soc"
)

// The four workloads. Their names are part of the benchmark's contract
// (BENCHMARK.json, README.md, committed result records).
const (
	hotQuery    = "hot-query"
	coldDesign  = "cold-design"
	sweepStream = "sweep-stream"
	durableJobs = "durable-jobs"
)

var workloads = []string{hotQuery, coldDesign, sweepStream, durableJobs}

// Request kinds. A kind fixes the endpoint, the response shape and how
// the oracle recomputes the response.
const (
	kindOptimize = "optimize" // POST /v1/optimize
	kindCompare  = "compare"  // POST /v1/compare, heuristic vs baseline
	kindSweep    = "sweep"    // POST /v1/sweep, NDJSON rows
	kindJob      = "job"      // POST /v1/jobs (a sweep), then its result stream
	kindRead     = "read"     // POST /v1/optimize answered from the disk tier
)

// op is one request of a plan, materialized byte for byte.
type op struct {
	Kind string `json:"kind"`
	// At is the open-loop due time from the start of the timed phase;
	// closed loops send as soon as a client is free and ignore it.
	At   time.Duration   `json:"at_ns,omitempty"`
	Body json.RawMessage `json:"body"`
	// Rows is the number of result rows a correct response carries.
	Rows int `json:"rows"`
	// Class names a kind of request whose latency forms a mode of its
	// own (cold-design's two chip kinds); empty where a workload has one.
	Class string `json:"class,omitempty"`
	// gen builds Body on demand, for bodies too costly to build for ops a
	// process does not send (cold-design's chips).
	gen func() ([]byte, error)
}

// materialize builds the bodies of ops that have not been built yet.
func materialize(ops []op) error {
	for i := range ops {
		if ops[i].Body == nil && ops[i].gen != nil {
			body, err := ops[i].gen()
			if err != nil {
				return err
			}
			ops[i].Body = body
		}
	}
	return nil
}

func (o op) path() string {
	switch o.Kind {
	case kindCompare:
		return "/v1/compare"
	case kindSweep:
		return "/v1/sweep"
	case kindJob:
		return "/v1/jobs"
	}
	return "/v1/optimize"
}

// plan is everything one workload sends, generated from the seed before
// any timing starts: the server only ever sees these bytes.
type plan struct {
	Workload string `json:"workload"`
	// Open marks an open loop: requests go out at their due times
	// whether or not earlier ones have finished.
	Open bool `json:"open"`
	// Rounds splits the timed phase into this many consecutive parts, each
	// run by a fresh process that sets the server up anew; a run reports
	// the median of each metric over its rounds.
	Rounds int `json:"rounds"`
	// Warm runs during set-up, sequentially and untimed per request.
	Warm []op `json:"warm"`
	Ops  []op `json:"ops"`
	// Reads is the second phase of durable-jobs, sent after the server
	// restarts over the same data directory.
	Reads []op `json:"reads,omitempty"`
}

// chunk is part r of n items split into parts equal to within one.
func chunk(n, r, parts int) (lo, hi int) {
	return r * n / parts, (r + 1) * n / parts
}

// round returns round r's ops and reads, with the plan index of the
// first of each.
func (p *plan) round(r int) (ops []op, opsLo int, reads []op, readsLo int) {
	lo, hi := chunk(len(p.Ops), r, p.Rounds)
	rlo, rhi := chunk(len(p.Reads), r, p.Rounds)
	return p.Ops[lo:hi], lo, p.Reads[rlo:rhi], rlo
}

// Workload sizes per second of --seconds. At the default 10 s each
// workload's timed phase, summed over its rounds, lasts about the run
// length on a 2-core machine.
//
// The closed-loop workloads run in several short rounds because the CPU
// of a shared machine changes speed in episodes of a fraction of a second
// to a few seconds; the median over rounds spread across the run keeps
// one slow episode from moving a whole run's numbers. hot-query runs as
// one round: its open loop keeps the server mostly idle, and splitting
// it would shrink the window over which its cache warms.
const (
	hotRate         = 400 // open-loop requests per second
	coldPerSecond   = 50  // each upload leaves ~5 MB of wrapper tables reachable
	coldRounds      = 6   // so a round's process holds ~83 uploads' tables
	sweepsPerSecond = 150
	sweepRounds     = 5
	jobsPerSecond   = 20
	readsPerSecond  = 200 // sent open-loop at readRate
	readRate        = 1000
	durableRounds   = 4
)

func sized(perSecond, seconds float64) int {
	return max(2, int(math.Round(perSecond*seconds)))
}

// buildPlan generates a workload's requests from the seed. The same
// (workload, seed, seconds) always yields byte-identical plans. Bodies of
// cold-design's uploads are built by materialize, per op.
func buildPlan(workload string, seed int64, seconds float64) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	var p *plan
	var err error
	switch workload {
	case hotQuery:
		p, err = hotPlan(rng, seconds)
	case coldDesign:
		p, err = coldPlan(seed, seconds)
	case sweepStream:
		p, err = sweepPlan(rng, seconds)
	case durableJobs:
		p, err = durablePlan(rng, seconds)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	p.Rounds = min(p.Rounds, len(p.Ops))
	return p, nil
}

// hotKey is one design key of hot-query: the chip and the tester shape
// the Step 1+2 design depends on.
type hotKey struct {
	soc      string
	channels int
	depth    int64
}

const (
	ki = int64(1) << 10
	mi = int64(1) << 20
)

// hotDesigns are hot-query's 36 design keys, interleaved across chips so
// the most popular ranks do not all land on one SOC. Every key is
// feasible for both the heuristic and the baseline backend.
var hotDesigns = func() []hotKey {
	per := []struct {
		soc      string
		channels []int
		depths   []int64
	}{
		{"d695", []int{128, 256}, []int64{32 * ki, 64 * ki, 128 * ki, 256 * ki}},
		{"p22810", []int{128, 256}, []int64{256 * ki, mi, 2 * mi, 4 * mi}},
		{"p34392", []int{256, 512}, []int64{mi, 2 * mi, 4 * mi, 7 * mi}},
		{"p93791", []int{256, 512}, []int64{mi, 2 * mi, 4 * mi, 7 * mi}},
		{"pnx8550", []int{256, 512}, []int64{7 * mi, 14 * mi}},
	}
	lists := make([][]hotKey, len(per))
	for i, p := range per {
		for _, d := range p.depths {
			for _, ch := range p.channels {
				lists[i] = append(lists[i], hotKey{p.soc, ch, d})
			}
		}
	}
	var out []hotKey
	for j := 0; len(out) < 36; j++ {
		for _, l := range lists {
			if j < len(l) {
				out = append(out, l[j])
			}
		}
	}
	return out
}()

// hotVariant is one of hot-query's 16 cost models: variants re-score a
// cached design without designing again.
type hotVariant struct {
	contactYield float64
	retest       bool
	abort        bool
}

var hotVariants = func() []hotVariant {
	var out []hotVariant
	for _, cy := range []float64{1, 0.999, 0.995, 0.99} {
		for _, rt := range []bool{false, true} {
			for _, ab := range []bool{false, true} {
				out = append(out, hotVariant{cy, rt, ab})
			}
		}
	}
	return out
}()

// hotScenario is scenario rank r of the 36×16 = 576 hot keys. Ranks run
// variant-major, so the 36 most popular are the base cost model of every
// design key: the scenarios set-up warms.
func hotScenario(r int) server.ScenarioRequest {
	k := hotDesigns[r%len(hotDesigns)]
	v := hotVariants[r/len(hotDesigns)]
	return server.ScenarioRequest{
		SOC: k.soc, Channels: k.channels, Depth: cli.Size(k.depth),
		ContactYield: v.contactYield, Retest: v.retest, AbortOnFail: v.abort,
	}
}

// arrival is the due time of request i of an open loop at rate per
// second: evenly spaced, with a seeded ±30% jitter that keeps due times
// strictly increasing.
func arrival(rng *rand.Rand, i int, rate float64) time.Duration {
	interval := float64(time.Second) / rate
	return time.Duration(float64(i)*interval + interval/2 + (rng.Float64()-0.5)*0.6*interval)
}

// compareSolvers are the two always-fast backends; the exact solver's
// run time explodes on the large chips and would measure the backend,
// not the service.
var compareSolvers = []string{"heuristic", "baseline"}

// hotPlan: an open loop at hotRate whose keys follow Zipf(1.1) over the
// 576 scenarios, 85% optimize and 15% compare. The working set fits both
// the design memo (256 designs) and the result cache (4096 entries).
func hotPlan(rng *rand.Rand, seconds float64) (*plan, error) {
	n := sized(hotRate, seconds)
	nKeys := len(hotDesigns) * len(hotVariants)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(nKeys-1))
	p := &plan{Workload: hotQuery, Open: true, Rounds: 1}
	for d := range hotDesigns {
		body, err := json.Marshal(hotScenario(d))
		if err != nil {
			return nil, err
		}
		p.Warm = append(p.Warm, op{Kind: kindOptimize, Body: body, Rows: 1})
	}
	for i := 0; i < n; i++ {
		at := arrival(rng, i, hotRate)
		req := hotScenario(int(zipf.Uint64()))
		o := op{Kind: kindOptimize, At: at, Rows: 1}
		var err error
		if rng.Float64() < 0.15 {
			o.Kind, o.Rows = kindCompare, len(compareSolvers)
			o.Body, err = json.Marshal(server.CompareRequest{ScenarioRequest: req, Solvers: compareSolvers})
		} else {
			o.Body, err = json.Marshal(req)
		}
		if err != nil {
			return nil, err
		}
		p.Ops = append(p.Ops, o)
	}
	return p, nil
}

// Cold-design's chip kinds, alternating upload by upload.
const (
	classGenerated = "generated"
	classRevision  = "revision"
)

// coldPlan: a closed loop of uploads of chips the server has never seen.
// Half the uploads are a small generated chip (6 logic + 2 memory cores),
// half a revision of d695 with three modules' pattern counts scaled by
// up to ±20%; every fifth is a compare. Names fold in the seed and the
// index, so no content hash ever repeats. The d695 revisions take about
// four times as long to design as the generated chips, so each kind is
// a latency class of its own.
func coldPlan(seed int64, seconds float64) (*plan, error) {
	n := sized(coldPerSecond, seconds)
	p := &plan{Workload: coldDesign, Rounds: coldRounds}
	warm, err := json.Marshal(server.ScenarioRequest{SOC: "d695", Channels: 256, Depth: cli.Size(64 * ki)})
	if err != nil {
		return nil, err
	}
	p.Warm = []op{{Kind: kindOptimize, Body: warm, Rows: 1}, {Kind: kindOptimize, Body: warm, Rows: 1}}
	for i := 0; i < n; i++ {
		o := op{Kind: kindOptimize, Rows: 1, Class: coldClass(i), gen: func() ([]byte, error) { return coldBody(seed, i) }}
		if i%5 == 4 {
			o.Kind, o.Rows = kindCompare, len(compareSolvers)
		}
		p.Ops = append(p.Ops, o)
	}
	return p, nil
}

func coldClass(i int) string {
	if i%2 == 0 {
		return classGenerated
	}
	return classRevision
}

// coldBody builds upload i of cold-design from its own seeded generator,
// so any one upload can be built without the others.
func coldBody(seed int64, i int) ([]byte, error) {
	chipSeed := seed*1_000_003 + int64(i)
	var req server.ScenarioRequest
	if coldClass(i) == classGenerated {
		chip := benchdata.Generate(benchdata.GenSpec{
			Name: fmt.Sprintf("cold%d-%d", seed, i), Seed: chipSeed,
			LogicCores: 6, MemoryCores: 2, TargetArea: 1 << 20,
		})
		req = server.ScenarioRequest{SOCText: soc.WriteString(chip), Channels: 128, Depth: cli.Size(4 * mi)}
	} else {
		rng := rand.New(rand.NewSource(chipSeed))
		chip := benchdata.D695()
		chip.Name = fmt.Sprintf("d695r%d-%d", seed, i)
		for _, k := range rng.Perm(len(chip.Modules) - 1)[:3] {
			m := &chip.Modules[k+1] // module 0 is the untestable top level
			m.Patterns = max(1, int(math.Round(float64(m.Patterns)*(0.8+0.4*rng.Float64()))))
		}
		req = server.ScenarioRequest{SOCText: soc.WriteString(chip), Channels: 256, Depth: cli.Size(64 * ki)}
	}
	if i%5 == 4 {
		return json.Marshal(server.CompareRequest{ScenarioRequest: req, Solvers: compareSolvers})
	}
	return json.Marshal(req)
}

// sweepChip is a chip sweeps run over, with a depth range in which its
// designs are feasible at the channel count.
type sweepChip struct {
	soc      string
	channels int
	lo, hi   int64
}

var sweepChips = []sweepChip{
	{"d695", 256, 32 * ki, mi},
	{"p22810", 256, 256 * ki, 14 * mi},
	{"p34392", 256, mi, 14 * mi},
	{"p93791", 256, mi, 14 * mi},
}

var contactYields = []float64{1, 0.9995, 0.999, 0.998, 0.995, 0.99, 0.98, 0.95}

// drawDepth draws a depth log-uniformly from the chip's range, rounded
// to whole K so it prints exactly.
func (c sweepChip) drawDepth(rng *rand.Rand) int64 {
	lo, hi := math.Log(float64(c.lo)), math.Log(float64(c.hi))
	return int64(math.Exp(lo+rng.Float64()*(hi-lo))) / ki * ki
}

// chipDepth is one design point of a sweep chip.
type chipDepth struct {
	soc   string
	depth int64
}

// sweepRequest draws depths × 4 contact yields × retest both over a
// chip; the depth draws avoid the design points in used, and add theirs.
func sweepRequest(rng *rand.Rand, c sweepChip, depths int, used map[chipDepth]bool) server.SweepRequest {
	var ds cli.SizeList
	for len(ds) < depths {
		d := c.drawDepth(rng)
		if used[chipDepth{c.soc, d}] {
			continue
		}
		used[chipDepth{c.soc, d}] = true
		ds = append(ds, d)
	}
	var cys []float64
	for _, k := range rng.Perm(len(contactYields))[:4] {
		cys = append(cys, contactYields[k])
	}
	return server.SweepRequest{
		ScenarioRequest: server.ScenarioRequest{SOC: c.soc, Channels: c.channels},
		Depths:          ds, ContactYields: cys, RetestBoth: true,
	}
}

// warmSweeps build each sweep chip's wrapper tables during set-up: one
// row per chip, at a depth the draws never produce (not a whole K).
func warmSweeps() ([]op, error) {
	var out []op
	for _, c := range sweepChips {
		body, err := json.Marshal(server.SweepRequest{
			ScenarioRequest: server.ScenarioRequest{SOC: c.soc, Channels: c.channels},
			Depths:          cli.SizeList{c.hi - 1},
		})
		if err != nil {
			return nil, err
		}
		out = append(out, op{Kind: kindSweep, Body: body, Rows: 1})
	}
	return out, nil
}

// sweepPlan: a closed loop of 48-row sweeps, 6 fresh depths × 4 contact
// yields × retest both, rotating over four chips. Within a sweep one row
// in eight designs and seven re-score through the memo.
func sweepPlan(rng *rand.Rand, seconds float64) (*plan, error) {
	n := sized(sweepsPerSecond, seconds)
	warm, err := warmSweeps()
	if err != nil {
		return nil, err
	}
	p := &plan{Workload: sweepStream, Rounds: sweepRounds, Warm: warm}
	for i := 0; i < n; i++ {
		used := map[chipDepth]bool{} // distinct depths within the sweep only
		req := sweepRequest(rng, sweepChips[i%len(sweepChips)], 6, used)
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		p.Ops = append(p.Ops, op{Kind: kindSweep, Body: body, Rows: 48})
	}
	return p, nil
}

// durablePlan: durable 24-row sweep jobs (3 depths × 4 contact yields ×
// retest both) whose scenarios are all distinct, then optimize reads of
// distinct scenarios the same round's jobs computed, which after a
// restart only the disk tier holds. The reads come from independent
// clients, an open loop at readRate.
func durablePlan(rng *rand.Rand, seconds float64) (*plan, error) {
	nJobs := max(durableRounds, sized(jobsPerSecond, seconds))
	warm, err := warmSweeps()
	if err != nil {
		return nil, err
	}
	p := &plan{Workload: durableJobs, Rounds: durableRounds, Warm: warm}
	used := map[chipDepth]bool{}
	points := make([][]server.ScenarioRequest, nJobs) // each job's scenarios
	for i := 0; i < nJobs; i++ {
		req := sweepRequest(rng, sweepChips[i%len(sweepChips)], 3, used)
		inner, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(server.JobSubmitRequest{Type: "sweep", Request: inner})
		if err != nil {
			return nil, err
		}
		p.Ops = append(p.Ops, op{Kind: kindJob, Body: body, Rows: 24})
		for _, d := range req.Depths {
			for _, cy := range req.ContactYields {
				for _, rt := range []bool{false, true} {
					points[i] = append(points[i], server.ScenarioRequest{
						SOC: req.SOC, Channels: req.Channels, Depth: cli.Size(d),
						ContactYield: cy, Retest: rt,
					})
				}
			}
		}
	}
	nReads := sized(readsPerSecond, seconds)
	for r := range durableRounds {
		lo, hi := chunk(nJobs, r, durableRounds)
		pool := slices.Concat(points[lo:hi]...)
		rlo, rhi := chunk(nReads, r, durableRounds)
		for _, k := range rng.Perm(len(pool))[:rhi-rlo] {
			body, err := json.Marshal(pool[k])
			if err != nil {
				return nil, err
			}
			p.Reads = append(p.Reads, op{Kind: kindRead, At: arrival(rng, len(p.Reads), readRate), Body: body, Rows: 1})
		}
	}
	return p, nil
}
