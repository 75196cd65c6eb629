package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"multisite/internal/benchdata"
	"multisite/internal/cachekey"
	"multisite/internal/core"
	"multisite/internal/diskcache"
	"multisite/internal/engine"
	"multisite/internal/jobs"
	"multisite/internal/resultcache"
	"multisite/internal/server"
	"multisite/internal/soc"
	"multisite/internal/solve"
	"multisite/internal/tam"
)

// The replay passes the sampled requests, one at a time, through the
// public calls the server makes for them, in the server's order, with a
// span around each call. It is the correctness oracle (every sampled
// response must equal the replay's bytes) and the source of the
// per-layer timings. It shares no state with the server it checks: chips
// are parsed from their text, so even named benchmarks get their own
// wrapper tables, and the caches, memo, disk tier and job journal are
// the replay's own. So every layer runs on every workload's inputs,
// including layers the served path of that workload skips (parsing a
// named chip, the disk tier, the journal).

// replayLayers maps spans to per-layer metrics: the per-call median of
// the span's duration, or of its self time where the span has children.
var replayLayers = []struct {
	span, metric, unit string
	self               bool
}{
	{"server.decode", "server.decode_us", "us", false},
	{"soc.parse", "soc.parse_ms", "ms", false},
	{"soc.hash", "soc.hash_ms", "ms", false},
	{"cachekey.scenario", "cachekey.scenario_us", "us", false},
	{"resultcache.hit", "resultcache.hit_us", "us", false},
	{"diskcache.get", "diskcache.get_us", "us", false},
	{"engine.memo", "engine.memo_us", "us", true},
	{"tam.step1", "tam.step1_ms", "ms", false},
	{"core.step2", "core.step2_ms", "ms", false},
	{"core.reevaluate", "core.reevaluate_us", "us", false},
	{"core.snapshot", "core.snapshot_us", "us", false},
	{"core.encode", "core.encode_us", "us", false},
	{"diskcache.put", "diskcache.put_ms", "ms", false},
	{"server.view_decode", "server.view_decode_us", "us", false},
	{"jobs.enqueue", "jobs.enqueue_ms", "ms", false},
}

var unitScale = map[string]float64{"us": 1e3, "ms": 1e6}

type replayer struct {
	tr    *tracer
	cache *resultcache.Cache
	disk  *diskcache.Cache
	memo  *engine.Memo
	mgr   *jobs.Manager
	named map[string]string   // benchmark name -> its canonical text
	chips map[string]*soc.SOC // content hash -> the chip designs run on

	mu     sync.Mutex
	emit   map[string][][]byte // job spec -> the rows its runner emits
	queued []replayJob
}

// replayJob is a sampled request the replay also ran as a durable job.
type replayJob struct {
	id   string
	rows [][]byte
}

func newReplayer(dir string, maxJobs int) (*replayer, error) {
	r := &replayer{
		tr:    newTracer(),
		cache: resultcache.New(resultcache.Options{}),
		memo:  engine.NewMemo(),
		named: map[string]string{},
		chips: map[string]*soc.SOC{},
		emit:  map[string][][]byte{},
	}
	r.memo.SetResolver(r.solver)
	disk, err := diskcache.Open(diskcache.Options{Dir: filepath.Join(dir, "cache")})
	if err != nil {
		return nil, err
	}
	r.disk = disk
	// One worker: the jobs run beside the replay, and a second would
	// compete with it for the CPU its layer timings measure.
	r.mgr, err = jobs.Open(jobs.Options{
		Dir: filepath.Join(dir, "jobs"), CAS: disk, Runner: r.runJob, Workers: 1, QueueDepth: maxJobs + 1,
	})
	if err != nil {
		return nil, err
	}
	<-r.mgr.Ready()
	return r, nil
}

// solver is the memo's resolver: the heuristic is split into its two
// steps so each gets a span; other backends run as registered.
func (r *replayer) solver(name string) (solve.Solver, error) {
	if name == "" || name == solve.DefaultName {
		return splitHeuristic{tr: r.tr}, nil
	}
	return solve.Get(name)
}

// splitHeuristic runs the paper's heuristic as tam.DesignStep1With and
// core.BuildResult, and checks that the result serializes to exactly the
// bytes the registered heuristic produces.
type splitHeuristic struct{ tr *tracer }

func (splitHeuristic) Name() string { return solve.DefaultName }

func (splitHeuristic) Info() solve.Info {
	return solve.Info{Name: solve.DefaultName, Description: "the heuristic, with Step 1 and Step 2 timed apart"}
}

func (h splitHeuristic) Solve(ctx context.Context, chip *soc.SOC, cfg core.Config) (*core.Result, error) {
	ctx, sp := h.tr.begin(ctx, "solve.heuristic")
	defer sp.end()
	cfg = cfg.Normalized()
	var arch *tam.Architecture
	var err error
	h.tr.do(ctx, "tam.step1", func(context.Context) { arch, err = tam.DesignStep1With(chip, cfg.ATE, cfg.TAM) })
	if err != nil {
		return nil, err
	}
	var res *core.Result
	h.tr.do(ctx, "core.step2", func(ctx context.Context) { res, err = core.BuildResult(ctx, chip, cfg, arch) })
	if err != nil {
		return nil, err
	}
	h.tr.do(ctx, "check.heuristic", func(ctx context.Context) {
		var ref *core.Result
		if ref, err = solve.Solve(ctx, solve.DefaultName, chip, cfg); err != nil {
			return
		}
		got, gerr := res.Snapshot().MarshalBytes()
		want, werr := ref.Snapshot().MarshalBytes()
		if err = errors.Join(gerr, werr); err == nil && !bytes.Equal(got, want) {
			err = errors.New("Step 1 + BuildResult differs from the registered heuristic")
		}
	})
	return res, err
}

// namedText is a benchmark chip's canonical text, checked to parse back
// to the same content hash.
func (r *replayer) namedText(name string) (string, error) {
	if t, ok := r.named[name]; ok {
		return t, nil
	}
	chip := benchdata.Shared(name)
	if chip == nil {
		return "", fmt.Errorf("unknown soc %q", name)
	}
	t := soc.WriteString(chip)
	if parsed, err := soc.ParseString(t); err != nil || parsed.Hash() != chip.Hash() {
		return "", fmt.Errorf("soc %s does not round-trip through its text (%v)", name, err)
	}
	r.named[name] = t
	return t, nil
}

// chip parses the request's chip and returns the one *soc.SOC the replay
// designs that content on (the memo is keyed by chip identity).
func (r *replayer) chip(ctx context.Context, req *server.ScenarioRequest) (*soc.SOC, string, error) {
	text := req.SOCText
	if text == "" {
		var err error
		if text, err = r.namedText(req.SOC); err != nil {
			return nil, "", err
		}
	}
	var chip *soc.SOC
	var err error
	r.tr.do(ctx, "soc.parse", func(context.Context) { chip, err = soc.ParseString(text) })
	if err != nil {
		return nil, "", err
	}
	var hash string
	r.tr.do(ctx, "soc.hash", func(context.Context) { hash = chip.Hash() })
	if c, ok := r.chips[hash]; ok {
		return c, hash, nil
	}
	r.chips[hash] = chip
	return chip, hash, nil
}

// snapshot produces one scenario's snapshot bytes the way the server's
// computeSnapshot does, then reads the entry back through the cache,
// which must return the same bytes as a hit.
func (r *replayer) snapshot(ctx context.Context, chip *soc.SOC, hash, solver string, cfg core.Config) ([]byte, error) {
	cfg = cfg.Normalized()
	if err := errors.Join(cfg.ATE.Validate(), cfg.Probe.Validate()); err != nil {
		return nil, err
	}
	var key string
	r.tr.do(ctx, "cachekey.scenario", func(context.Context) { key = cachekey.Scenario(hash, solver, cfg) })
	dctx, sp := r.tr.begin(ctx, "resultcache.miss")
	data, hit, err := r.cache.DoCond(dctx, key, func(ctx context.Context) ([]byte, bool, error) {
		return r.compute(ctx, key, chip, solver, cfg)
	})
	if hit {
		sp.rename("resultcache.hit")
	}
	sp.end()
	if err != nil {
		return nil, err
	}
	var again []byte
	r.tr.do(ctx, "resultcache.hit", func(ctx context.Context) {
		again, hit, err = r.cache.DoCond(ctx, key, func(context.Context) ([]byte, bool, error) {
			return nil, false, errors.New("entry missing right after it was stored")
		})
	})
	if err == nil && (!hit || !bytes.Equal(again, data)) {
		err = errors.New("the result cache returned other bytes than it stored")
	}
	return data, err
}

// compute is the body of the server's cache-miss path: disk tier, design
// memo, re-scoring under the request's cost model, serialization, and
// the spill to disk.
func (r *replayer) compute(ctx context.Context, key string, chip *soc.SOC, solver string, cfg core.Config) ([]byte, bool, error) {
	var data []byte
	var ok bool
	r.tr.do(ctx, "diskcache.get", func(context.Context) { data, ok = r.disk.Get(key) })
	if ok {
		return data, true, nil
	}
	var design *core.Result
	var err error
	r.tr.do(ctx, "engine.memo", func(ctx context.Context) { design, err = r.memo.DesignSolverCtx(ctx, solver, chip, cfg) })
	if err != nil {
		return nil, false, err
	}
	var curve, step1Curve []core.SiteEval
	var best core.SiteEval
	r.tr.do(ctx, "core.reevaluate", func(context.Context) {
		curve, best = design.ReEvaluate(cfg)
		step1Curve = make([]core.SiteEval, design.MaxSites)
		for n := 1; n <= design.MaxSites; n++ {
			step1Curve[n-1] = cfg.EvaluateAt(design.Step1, n)
		}
	})
	var snap *core.Snapshot
	r.tr.do(ctx, "core.snapshot", func(context.Context) { snap = design.SnapshotUnder(cfg, curve, step1Curve, best) })
	r.tr.do(ctx, "core.encode", func(context.Context) { data, err = snap.MarshalBytes() })
	if err != nil {
		return nil, false, err
	}
	r.tr.do(ctx, "diskcache.put", func(context.Context) { err = r.disk.Put(key, data) })
	return data, !design.Degraded, err
}

// snapshotView mirrors the fields of a snapshot the server's handlers
// read back from the cached bytes.
type snapshotView struct {
	Channels int           `json:"channels"`
	MaxSites int           `json:"max_sites"`
	Best     core.SiteEval `json:"best"`
	Gain     float64       `json:"gain_over_step1"`
	Degraded bool          `json:"degraded"`
	Optimal  bool          `json:"optimal"`
}

func (r *replayer) view(ctx context.Context, data []byte) (snapshotView, error) {
	var v snapshotView
	var err error
	r.tr.do(ctx, "server.view_decode", func(context.Context) { err = json.Unmarshal(data, &v) })
	return v, err
}

// decode is the server's strict request decoding.
func (r *replayer) decode(ctx context.Context, body []byte, v any) error {
	var err error
	r.tr.do(ctx, "server.decode", func(context.Context) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
	})
	return err
}

func canonicalSolver(name string) (string, error) {
	sv, err := solve.Get(name)
	if err != nil {
		return "", err
	}
	return sv.Name(), nil
}

// check recomputes one sampled request and compares it with what the
// server answered: the digest of the whole body, or for a compare the
// heuristic row. The request then runs as a durable job too. A non-nil
// error is a failed operation.
func (r *replayer) check(ctx context.Context, o op, idx int, digest string, body []byte) error {
	ctx, root := r.tr.begin(withRequest(ctx, int64(idx)+1, 0), "replay."+o.Kind)
	defer root.end()
	var (
		spec jobs.Spec
		rows [][]byte
		want []byte // the expected response body; nil for compares
	)
	switch o.Kind {
	case kindOptimize, kindRead:
		var req server.ScenarioRequest
		if err := r.decode(ctx, o.Body, &req); err != nil {
			return err
		}
		chip, hash, err := r.chip(ctx, &req)
		if err != nil {
			return err
		}
		solver, err := canonicalSolver(req.Solver)
		if err != nil {
			return err
		}
		data, err := r.snapshot(ctx, chip, hash, solver, req.Config())
		if err != nil {
			return err
		}
		if _, err := r.view(ctx, data); err != nil {
			return err
		}
		want, rows = data, [][]byte{data}
		spec = jobs.Spec{Type: jobs.TypeOptimize, Request: o.Body}
	case kindSweep, kindJob:
		raw := o.Body
		if o.Kind == kindJob {
			var sub server.JobSubmitRequest
			if err := r.decode(ctx, o.Body, &sub); err != nil {
				return err
			}
			raw = sub.Request
		}
		var req server.SweepRequest
		if err := r.decode(ctx, raw, &req); err != nil {
			return err
		}
		chip, hash, err := r.chip(ctx, &req.ScenarioRequest)
		if err != nil {
			return err
		}
		solver, err := canonicalSolver(req.Solver)
		if err != nil {
			return err
		}
		for i, job := range req.Grid(chip).Jobs() {
			data, err := r.snapshot(ctx, chip, hash, solver, job.Config)
			if err != nil {
				return err
			}
			v, err := r.view(ctx, data)
			if err != nil {
				return err
			}
			row, err := json.Marshal(server.SweepRow{
				Index: i, Name: job.Name,
				Sites: v.Best.Sites, MaxSites: v.MaxSites, Channels: v.Best.Channels,
				TestCycles: v.Best.TestCycles, TestTimeSec: v.Best.TestTimeSec,
				Throughput: v.Best.Throughput, UniqueThroughput: v.Best.UniqueThroughput,
				GainOverStep1: v.Gain, Degraded: v.Degraded, Optimal: v.Optimal,
			})
			if err != nil {
				return err
			}
			rows = append(rows, row)
			want = append(append(want, row...), '\n')
		}
		spec = jobs.Spec{Type: jobs.TypeSweep, Request: raw}
	case kindCompare:
		var req server.CompareRequest
		if err := r.decode(ctx, o.Body, &req); err != nil {
			return err
		}
		chip, hash, err := r.chip(ctx, &req.ScenarioRequest)
		if err != nil {
			return err
		}
		data, err := r.snapshot(ctx, chip, hash, solve.DefaultName, req.Config())
		if err != nil {
			return err
		}
		v, err := r.view(ctx, data)
		if err != nil {
			return err
		}
		row, err := json.Marshal(server.CompareRow{
			Solver: solve.DefaultName, Wires: v.Channels / 2, Channels: v.Channels,
			MaxSites: v.MaxSites, Sites: v.Best.Sites, TestCycles: v.Best.TestCycles,
			TestTimeSec: v.Best.TestTimeSec, Throughput: v.Best.Throughput,
			UniqueThroughput: v.Best.UniqueThroughput, GainOverStep1: v.Gain,
			Degraded: v.Degraded, Optimal: v.Optimal,
		})
		if err != nil {
			return err
		}
		if err := compareRowMatches(body, chip.Name, hash, row); err != nil {
			return err
		}
		rows = [][]byte{row}
		spec = jobs.Spec{Type: jobs.TypeCompare, Request: o.Body}
	default:
		return fmt.Errorf("unknown kind %q", o.Kind)
	}
	var mismatch error
	if want != nil {
		if sum := sha256.Sum256(want); hex.EncodeToString(sum[:]) != digest {
			mismatch = fmt.Errorf("response differs from the replay's %d bytes", len(want))
		}
	}
	return errors.Join(mismatch, r.enqueue(ctx, spec, rows))
}

// compareRowMatches checks a served compare response's chip identity and
// its heuristic row, byte for byte, against the replay's row.
func compareRowMatches(body []byte, socName, hash string, want []byte) error {
	if body == nil {
		return errors.New("compare response body was not kept")
	}
	var resp server.CompareResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("compare response: %v", err)
	}
	if resp.SOC != socName || resp.SOCHash != hash {
		return fmt.Errorf("compare response names soc %s/%s, want %s/%s", resp.SOC, resp.SOCHash, socName, hash)
	}
	for _, row := range resp.Rows {
		if row.Solver != solve.DefaultName {
			continue
		}
		got, err := json.Marshal(row)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("heuristic row %s, want %s", got, want)
		}
		return nil
	}
	return errors.New("compare response has no heuristic row")
}

func jobKey(spec jobs.Spec) string { return string(spec.Type) + "\x00" + string(spec.Request) }

// enqueue runs the sampled request through the durable job layer: the
// journal (fsynced enqueue), the worker pool and the CAS result blob.
func (r *replayer) enqueue(ctx context.Context, spec jobs.Spec, rows [][]byte) error {
	r.mu.Lock()
	r.emit[jobKey(spec)] = rows
	r.mu.Unlock()
	var snap jobs.Snapshot
	var err error
	r.tr.do(ctx, "jobs.enqueue", func(context.Context) { snap, err = r.mgr.Enqueue(spec) })
	if err != nil {
		return err
	}
	r.queued = append(r.queued, replayJob{id: snap.ID, rows: rows})
	return nil
}

// runJob is the replay's job runner: it emits the rows the replay
// computed for the spec.
func (r *replayer) runJob(_ context.Context, spec jobs.Spec, sink jobs.Sink) error {
	r.mu.Lock()
	rows, ok := r.emit[jobKey(spec)]
	r.mu.Unlock()
	if !ok {
		return errors.New("no rows for this job spec")
	}
	sink.SetTotal(len(rows))
	for _, row := range rows {
		if err := sink.Emit(row); err != nil {
			return err
		}
	}
	return nil
}

// finishJobs waits for every replay job and checks that its durable
// result holds exactly the rows its runner emitted.
func (r *replayer) finishJobs(ctx context.Context, out *childOut) {
	for _, j := range r.queued {
		var got [][]byte
		snap, err := r.mgr.StreamResult(ctx, j.id, 0, func(row []byte) error {
			got = append(got, append([]byte(nil), row...))
			return nil
		})
		switch {
		case err != nil:
			out.fail("replay job %s: %v", j.id, err)
		case snap.State != jobs.StateDone:
			out.fail("replay job %s ended %s: %s", j.id, snap.State, snap.Error)
		case !equalRows(got, j.rows):
			out.fail("replay job %s: durable result differs from the synchronous rows", j.id)
		}
	}
}

func equalRows(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func (r *replayer) close() error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	return r.mgr.Close(ctx)
}

// replay checks every sampleEvery-th request of the measured run (its
// digests and kept bodies in m) and times each layer while doing so.
func replay(ctx context.Context, cfg runConfig, m *childOut) (*childOut, error) {
	p, err := buildPlan(cfg.Workload, cfg.Seed, cfg.Seconds)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.Dir, "replay")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r, err := newReplayer(dir, len(p.Ops)+len(p.Reads))
	if err != nil {
		return nil, err
	}
	out := &childOut{}
	phase := func(list []op, offset int) {
		for i := 0; i < len(list); i += sampleEvery {
			k := offset + i
			if k >= len(m.Digests) || m.Digests[k] == "" {
				continue // failed on the wire, already counted
			}
			out.Attempted++
			if err := materialize(list[i : i+1]); err != nil {
				out.fail("%s op %d: %v", list[i].Kind, k, err)
				continue
			}
			if err := r.check(ctx, list[i], k, m.Digests[k], m.Bodies[k]); err != nil {
				out.fail("%s op %d: %v", list[i].Kind, k, err)
			}
		}
	}
	phase(p.Ops, 0)
	phase(p.Reads, len(p.Ops))
	r.finishJobs(ctx, out)
	if err := r.close(); err != nil {
		return nil, err
	}

	spans := r.tr.snapshot()
	selfTimes(spans)
	for _, l := range replayLayers {
		var xs []float64
		for _, s := range spans {
			if s.Name != l.span {
				continue
			}
			if l.self {
				xs = append(xs, float64(s.Self))
			} else {
				xs = append(xs, float64(s.dur()))
			}
		}
		out.set(l.metric, median(xs)/unitScale[l.unit], l.unit)
	}
	out.set("oracle.checked", float64(out.Attempted), "count")
	if cfg.Traced {
		if err := writeJSON(filepath.Join(cfg.Dir, "spans-replay.json"), spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}
