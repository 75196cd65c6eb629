// Cacheable result serialization: a Snapshot is the self-contained,
// JSON-stable capture of an optimization that the result cache stores and
// the HTTP serving layer returns. Unlike Result — which holds live
// pointers into the SOC and its Step 1 architecture — a Snapshot is
// pure data: curves, the best operating point, and the architectures in
// their textual form (tam's serialization format, which round-trips via
// tam.ParseArchitecture). Marshaling is deterministic: fixed field order,
// no maps, so equal results serialize to identical bytes and cached
// responses are byte-stable.
package core

import "encoding/json"

// Snapshot is a serializable capture of an optimization outcome under one
// cost model. Build it with Result.Snapshot (the design-time cost model)
// or Result.SnapshotUnder (curves a caller re-scored under its own cost
// model, as the serving layer does).
type Snapshot struct {
	// SOC is the chip name; SOCHash is its canonical content hash
	// (soc.SOC.Hash), the identity cache keys are derived from.
	SOC     string `json:"soc"`
	SOCHash string `json:"soc_hash"`
	// Config is the configuration the evaluations were scored under.
	Config Config `json:"config"`
	// Channels is the per-site channel count of the Step 1 architecture;
	// MaxSites is the implied nmax.
	Channels int `json:"channels"`
	MaxSites int `json:"max_sites"`
	// Best is the optimal evaluation; Curve and Step1Curve are the full
	// per-site-count evaluations (index i is n = i+1 sites).
	Best       SiteEval   `json:"best"`
	Curve      []SiteEval `json:"curve"`
	Step1Curve []SiteEval `json:"step1_curve"`
	// Gain is the relative throughput gain of Step 1+2 over Step 1
	// alone across the full curve (CurveGain at MaxSites),
	// precomputed so row projections need not decode the curves.
	Gain float64 `json:"gain_over_step1"`
	// Step1Arch and BestArch are the Step 1 and best redistributed
	// architectures in tam's textual serialization format.
	Step1Arch string `json:"step1_arch"`
	BestArch  string `json:"best_arch"`
	// Degraded and Optimal carry the result's anytime provenance
	// (core.Result.Degraded/Optimal). omitempty keeps snapshots from
	// completed deterministic runs byte-identical to earlier releases.
	Degraded bool `json:"degraded,omitempty"`
	Optimal  bool `json:"optimal,omitempty"`
}

// Snapshot captures the result under its design-time cost model, its
// curves re-scored afresh.
func (r *Result) Snapshot() *Snapshot {
	curve := make([]SiteEval, r.MaxSites)
	step1Curve := make([]SiteEval, r.MaxSites)
	best, _, _ := r.Rescore(r.Config, curve, step1Curve)
	return r.SnapshotUnder(r.Config, curve, step1Curve, best)
}

// SnapshotUnder captures the result's architectures together with the
// curves and best that Rescore filled in for cfg, which may be another
// cost model than the design's. The best architecture is built at
// best.Sites (ArchAt).
func (r *Result) SnapshotUnder(cfg Config, curve, step1Curve []SiteEval, best SiteEval) *Snapshot {
	s := &Snapshot{
		SOC:        r.SOC.Name,
		SOCHash:    r.SOC.Hash(),
		Config:     cfg.normalized(),
		Channels:   r.Step1.Channels(),
		MaxSites:   r.MaxSites,
		Best:       best,
		Curve:      curve,
		Step1Curve: step1Curve,
		Gain:       CurveGain(step1Curve, curve, r.MaxSites),
		Step1Arch:  r.Step1.WriteString(),
		Degraded:   r.Degraded,
		Optimal:    r.Optimal,
	}
	if best.Sites >= 1 && best.Sites <= r.MaxSites {
		s.BestArch = r.ArchAt(best.Sites).WriteString()
	}
	return s
}

// MarshalBytes renders the snapshot as compact JSON. The output is
// deterministic for a given snapshot, so it doubles as the cached
// response body.
func (s *Snapshot) MarshalBytes() ([]byte, error) {
	return json.Marshal(s)
}
