package server

import (
	"encoding/json"

	"multisite/internal/ate"
	"multisite/internal/cli"
	"multisite/internal/core"
	"multisite/internal/engine"
	"multisite/internal/soc"
	"multisite/internal/solve"
	"multisite/internal/tam"
)

// ScenarioRequest is the JSON body of POST /v1/optimize, and the base
// scenario of POST /v1/sweep. Exactly one of SOC (a built-in benchmark
// name, see GET /v1/socs) or SOCText (an inline ITC'02-style description)
// selects the chip. Zero-valued tester fields take the paper's Section 7
// base cell defaults: N = 512 channels, D = 7 M vectors, 5 MHz clock,
// ti = 0.65 s, tc = 0.1 s.
type ScenarioRequest struct {
	SOC     string `json:"soc,omitempty"`
	SOCText string `json:"soc_text,omitempty"`

	// Solver names the optimizer backend (see GET /v1/solvers); empty
	// means the default two-step heuristic.
	Solver string `json:"solver,omitempty"`

	// TimeoutMS caps this request's compute time in milliseconds; the
	// effective deadline is the tighter of this and the server's
	// request timeout. With the portfolio backend a deadline does not
	// fail the request — it returns the best design found so far,
	// marked degraded. Deliberately not a cache-key dimension: degraded
	// results are never cached, and a completed result is independent
	// of the deadline it beat.
	TimeoutMS int `json:"timeout_ms,omitempty"`

	// Anytime streams the optimization instead of answering once:
	// the response becomes NDJSON, one AnytimeEvent per improving
	// design, ending with a final event carrying the full snapshot.
	// Only meaningful on /v1/optimize.
	Anytime bool `json:"anytime,omitempty"`

	Channels  int      `json:"channels,omitempty"`
	Depth     cli.Size `json:"depth,omitempty"`
	ClockHz   float64  `json:"clock_hz,omitempty"`
	Broadcast bool     `json:"broadcast,omitempty"`

	IndexTime   *float64 `json:"index_time,omitempty"`
	ContactTime *float64 `json:"contact_time,omitempty"`

	ContactYield float64 `json:"contact_yield,omitempty"`
	Yield        float64 `json:"yield,omitempty"`
	AbortOnFail  bool    `json:"abort_on_fail,omitempty"`
	Retest       bool    `json:"retest,omitempty"`
	// ControlPins is the number of contacted pins beyond the k channels.
	// Omitted means 0, matching the CLI and experiment defaults; -1
	// selects core.DefaultControlPins.
	ControlPins int `json:"control_pins,omitempty"`

	// TAMSinglePass and TAMNoSqueeze expose the Step 1 ablation knobs.
	TAMSinglePass bool `json:"tam_single_pass,omitempty"`
	TAMNoSqueeze  bool `json:"tam_no_squeeze,omitempty"`
}

// Config assembles the optimizer configuration from the request.
func (r *ScenarioRequest) Config() core.Config {
	channels := r.Channels
	if channels == 0 {
		channels = 512
	}
	depth := int64(r.Depth)
	if depth == 0 {
		depth = 7 << 20
	}
	clock := r.ClockHz
	if clock == 0 {
		clock = 5e6
	}
	probe := ate.DefaultProbeStation()
	if r.IndexTime != nil {
		probe.IndexTime = *r.IndexTime
	}
	if r.ContactTime != nil {
		probe.ContactTime = *r.ContactTime
	}
	return core.Config{
		ATE:          ate.ATE{Channels: channels, Depth: depth, ClockHz: clock, Broadcast: r.Broadcast},
		Probe:        probe,
		ContactYield: r.ContactYield,
		Yield:        r.Yield,
		AbortOnFail:  r.AbortOnFail,
		Retest:       r.Retest,
		ControlPins:  r.ControlPins,
		TAM:          tam.Options{SinglePass: r.TAMSinglePass, NoSqueeze: r.TAMNoSqueeze},
	}
}

// SweepRequest is the JSON body of POST /v1/sweep: the base scenario plus
// the axes to expand. Empty axes stay at the base scenario's value. The
// response streams one NDJSON SweepRow per grid point, in deterministic
// grid order (depths fastest among the design axes, then cost-model axes,
// matching engine.Grid).
type SweepRequest struct {
	ScenarioRequest

	// Depths accepts an array of sizes (["48K", 65536]) or a string
	// comma list / start:stop:step range ("5M:14M:1M").
	Depths cli.SizeList `json:"depths,omitempty"`
	// ChannelsList sweeps the ATE channel count.
	ChannelsList []int `json:"channels_list,omitempty"`
	// ContactYields and Yields sweep the cost-model axes.
	ContactYields []float64 `json:"contact_yields,omitempty"`
	Yields        []float64 `json:"yields,omitempty"`
	// BroadcastBoth sweeps both broadcast variants; AbortBoth and
	// RetestBoth likewise for the Section 5 cost-model variants.
	BroadcastBoth bool `json:"broadcast_both,omitempty"`
	AbortBoth     bool `json:"abort_both,omitempty"`
	RetestBoth    bool `json:"retest_both,omitempty"`
}

// Grid expands the request into the engine's sweep grid for the SOC.
func (r *SweepRequest) Grid(s *soc.SOC) engine.Grid {
	base := r.Config()
	g := engine.Grid{
		SOCs:          []*soc.SOC{s},
		Solvers:       []string{r.Solver},
		Channels:      r.ChannelsList,
		Depths:        r.Depths,
		ClockHz:       base.ATE.ClockHz,
		Probe:         base.Probe,
		ControlPins:   base.ControlPins,
		TAM:           []tam.Options{base.TAM},
		ContactYields: r.ContactYields,
		Yields:        r.Yields,
	}
	if len(g.Channels) == 0 {
		g.Channels = []int{base.ATE.Channels}
	}
	if len(g.Depths) == 0 {
		g.Depths = []int64{base.ATE.Depth}
	}
	if len(g.ContactYields) == 0 {
		g.ContactYields = []float64{base.ContactYield}
	}
	if len(g.Yields) == 0 {
		g.Yields = []float64{base.Yield}
	}
	if r.BroadcastBoth {
		g.Broadcast = []bool{false, true}
	} else {
		g.Broadcast = []bool{base.ATE.Broadcast}
	}
	if r.AbortBoth {
		g.AbortOnFail = []bool{false, true}
	} else {
		g.AbortOnFail = []bool{base.AbortOnFail}
	}
	if r.RetestBoth {
		g.Retest = []bool{false, true}
	} else {
		g.Retest = []bool{base.Retest}
	}
	return g
}

// SweepRow is one NDJSON line of a sweep response. Exactly one of Error
// or the evaluation fields is meaningful. Rows are pure functions of
// their scenario — no cache or timing state — so a repeated sweep is
// byte-identical.
type SweepRow struct {
	Index int    `json:"index"`
	Name  string `json:"name"`

	Sites            int     `json:"sites,omitempty"`
	MaxSites         int     `json:"max_sites,omitempty"`
	Channels         int     `json:"channels,omitempty"`
	TestCycles       int64   `json:"test_cycles,omitempty"`
	TestTimeSec      float64 `json:"test_time_sec,omitempty"`
	Throughput       float64 `json:"throughput,omitempty"`
	UniqueThroughput float64 `json:"unique_throughput,omitempty"`
	GainOverStep1    float64 `json:"gain_over_step1,omitempty"`

	// Degraded marks a best-effort row produced under a deadline or a
	// backend failure (never cached); Optimal marks a proven-minimal
	// Step 1 wire count.
	Degraded bool `json:"degraded,omitempty"`
	Optimal  bool `json:"optimal,omitempty"`

	Error string `json:"error,omitempty"`
}

// snapshotView is the slice of a core.Snapshot that sweep rows, compare
// rows and the provenance headers read; each cachedResult holds one. A
// compute builds it from the design's re-score, before and without
// rendering the snapshot, and a disk-tier hit decodes it once from the
// bytes, skipping the curves and architecture texts that dominate a
// snapshot's size. Either way it holds the values decoding the rendered
// bytes would give. The JSON tags are what that decode reads.
type snapshotView struct {
	// Channels is the Step 1 architecture's channel count (2·wires),
	// which the compare rows report alongside the best operating point.
	Channels int           `json:"channels"`
	MaxSites int           `json:"max_sites"`
	Best     core.SiteEval `json:"best"`
	Gain     float64       `json:"gain_over_step1"`
	Degraded bool          `json:"degraded"`
	Optimal  bool          `json:"optimal"`
}

// rowFromSnapshot projects an optimization snapshot onto a sweep row.
func rowFromSnapshot(index int, name string, snap *snapshotView) SweepRow {
	return SweepRow{
		Index:            index,
		Name:             name,
		Sites:            snap.Best.Sites,
		MaxSites:         snap.MaxSites,
		Channels:         snap.Best.Channels,
		TestCycles:       snap.Best.TestCycles,
		TestTimeSec:      snap.Best.TestTimeSec,
		Throughput:       snap.Best.Throughput,
		UniqueThroughput: snap.Best.UniqueThroughput,
		GainOverStep1:    snap.Gain,
		Degraded:         snap.Degraded,
		Optimal:          snap.Optimal,
	}
}

// AnytimeEvent is one NDJSON line of an anytime /v1/optimize response
// (ScenarioRequest.Anytime). Improving designs stream as light events —
// sequence number, wires, fill — as the raced backends find them; the
// stream ends with exactly one event with Final set, carrying either the
// full snapshot (and the degraded/optimal provenance) or the error that
// ended the run.
type AnytimeEvent struct {
	Seq        int   `json:"seq"`
	Wires      int   `json:"wires,omitempty"`
	TestCycles int64 `json:"test_cycles,omitempty"`

	Final    bool           `json:"final,omitempty"`
	Degraded bool           `json:"degraded,omitempty"`
	Optimal  bool           `json:"optimal,omitempty"`
	Snapshot *core.Snapshot `json:"snapshot,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// CompareRequest is the JSON body of POST /v1/compare: one scenario plus
// the optimizer backends to run it through. Empty Solvers means every
// registered backend. The response is a side-by-side delta table — the
// paper's Table 3-style baseline-vs-exact-vs-heuristic comparison as a
// single API call.
type CompareRequest struct {
	ScenarioRequest

	// Solvers lists the backends to compare, in response-row order;
	// duplicates are rejected. The per-scenario Solver field must be
	// unset — the comparison owns backend selection.
	Solvers []string `json:"solvers,omitempty"`
}

// CompareRow is one backend's outcome in a /v1/compare response. Exactly
// one of Error or the evaluation fields is meaningful. Delta fields are
// present (even when zero) on every successful row except the reference
// row they are measured against.
type CompareRow struct {
	Solver string `json:"solver"`

	Wires            int     `json:"wires,omitempty"`
	Channels         int     `json:"channels,omitempty"`
	MaxSites         int     `json:"max_sites,omitempty"`
	Sites            int     `json:"sites,omitempty"`
	TestCycles       int64   `json:"test_cycles,omitempty"`
	TestTimeSec      float64 `json:"test_time_sec,omitempty"`
	Throughput       float64 `json:"throughput,omitempty"`
	UniqueThroughput float64 `json:"unique_throughput,omitempty"`
	GainOverStep1    float64 `json:"gain_over_step1,omitempty"`

	// Degraded and Optimal carry the row's provenance, as in SweepRow.
	Degraded bool `json:"degraded,omitempty"`
	Optimal  bool `json:"optimal,omitempty"`

	// Deltas are measured against the reference row: wires and sites as
	// differences, throughput as a percentage of the reference's.
	DeltaWires         *int     `json:"delta_wires,omitempty"`
	DeltaSites         *int     `json:"delta_sites,omitempty"`
	DeltaThroughputPct *float64 `json:"delta_throughput_pct,omitempty"`
	DeltaGain          *float64 `json:"delta_gain_over_step1,omitempty"`

	Error string `json:"error,omitempty"`
}

// CompareResponse is the body of POST /v1/compare.
type CompareResponse struct {
	SOC     string `json:"soc"`
	SOCHash string `json:"soc_hash"`
	// Reference names the solver the delta columns are measured against:
	// the default heuristic when it is among the successful rows,
	// otherwise the first successful row.
	Reference string       `json:"reference,omitempty"`
	Rows      []CompareRow `json:"rows"`
}

// SolverEntry is one row of the GET /v1/solvers listing.
type SolverEntry struct {
	solve.Info
	// Default marks the backend used when a request names no solver.
	Default bool `json:"default,omitempty"`
}

// SOCInfo is one entry of the GET /v1/socs listing.
type SOCInfo struct {
	Name          string `json:"name"`
	Hash          string `json:"hash"`
	Modules       int    `json:"modules"`
	Testable      int    `json:"testable"`
	TotalTestBits int64  `json:"total_test_bits"`
}

// JobSubmitRequest is the JSON body of POST /v1/jobs: the job's type
// (optimize, sweep, or compare) and the request body the matching
// synchronous endpoint would take, validated under the same rules at
// submit time. The 202 response body is the job's snapshot; its id
// addresses GET /v1/jobs/{id} and /v1/jobs/{id}/result.
type JobSubmitRequest struct {
	Type    string          `json:"type"`
	Request json.RawMessage `json:"request"`
}

// errorResponse is the JSON error body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}
