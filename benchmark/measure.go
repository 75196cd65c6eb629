package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"multisite/internal/server"
)

// sampleEvery picks the requests the oracle recomputes: every 8th of each
// phase, counting from the first.
const sampleEvery = 8

// runConfig is one workload run as a child process sees it.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Traced   bool
	// Round selects the part of the plan a measuring child sends.
	Round int
	// Dir holds the run's working files: the durable workload's data
	// directory, the replay's stores and, when traced, span dumps.
	Dir string
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childOut is what one child phase reports to the parent.
type childOut struct {
	Metrics map[string]metric `json:"metrics"`
	// Digests holds the sha256 of every response body in plan order (ops,
	// then reads); empty where the request failed. Ops counts the leading
	// digests that belong to ops.
	Digests []string `json:"digests,omitempty"`
	Ops     int      `json:"ops"`
	// Bodies keeps the sampled compare responses, by plan index, for the
	// oracle's row check.
	Bodies map[int]json.RawMessage `json:"bodies,omitempty"`
	// ReadyAt is the wall-clock time (Unix ns) set-up finished, the
	// server constructed and warm, less the input planning done before
	// it. The parent turns it into setup_s.
	ReadyAt   int64    `json:"ready_at_ns,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

func (o *childOut) set(name string, v float64, unit string) {
	if o.Metrics == nil {
		o.Metrics = map[string]metric{}
	}
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records one failed operation, keeping the first few messages.
func (o *childOut) fail(format string, args ...any) {
	o.Failed++
	if len(o.Failures) < 20 {
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// env is a running server behind a real loopback listener, plus the
// client that drives it.
type env struct {
	srv *server.Server
	hts *httptest.Server
	c   *client
}

func openEnv(opts server.Options, tr *tracer) (*env, error) {
	srv, err := server.NewWithData(opts)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tracedHandler(tr, h)
	}
	hts := httptest.NewServer(h)
	e := &env{srv: srv, hts: hts, c: newClient(hts.URL, tr)}
	// A durable server replays its journal before it is ready.
	for {
		rp := e.c.do(context.Background(), http.MethodGet, "/readyz", nil, false)
		if rp.Err == nil && rp.Status == http.StatusOK {
			return e, nil
		}
		if rp.Err != nil {
			e.close()
			return nil, rp.Err
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the listener (waiting for in-flight requests) and then
// drains the server's job layer.
func (e *env) close() error {
	e.c.close()
	e.hts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return e.srv.Close(ctx)
}

// warm sends set-up requests one at a time; any failure aborts the run.
func (e *env) warm(ctx context.Context, ops []op) error {
	for _, o := range ops {
		rp := e.c.do(ctx, http.MethodPost, o.path(), o.Body, false)
		if err := check(o, rp, http.StatusOK); err != nil {
			return fmt.Errorf("warm-up %s: %v", o.path(), err)
		}
	}
	return nil
}

// scrape reads the server's unlabeled /metrics counters.
func (e *env) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.hts.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := e.c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// liveHeapMB is the heap still reachable after a full collection (two
// cycles, so sync.Pool victims are gone too).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// gcCPU reads the runtime's cumulative GC and total CPU time.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// latencyStats sets p50 and p95 of the given latencies (in send order)
// as medians over windows, and p99 over all of them where at least 1000
// samples support it. Where the requests come in latency classes, p50 is
// per class (p50_<class>_ms) and p50_ms their geometric mean; p95 lies
// in the slowest class's mode either way.
func latencyStats(out *childOut, xs []float64, classes []string) {
	p50, byClass := classP50(xs, classes)
	out.set("p50_ms", p50, "ms")
	for c, v := range byClass {
		out.set("p50_"+c+"_ms", v, "ms")
	}
	out.set("p95_ms", windowed(xs, 95), "ms")
	if len(xs) >= 1000 {
		out.set("p99_ms", percentile(xs, 99), "ms")
	}
}

// measure runs one round of a workload against a fresh in-process server:
// set-up, the timed phase, and the bookkeeping the metrics need. With
// setupOnly it stops after set-up, which is how the parent samples set-up
// time in several fresh processes.
func measure(ctx context.Context, cfg runConfig, setupOnly bool) (*childOut, error) {
	planStart := time.Now()
	p, err := buildPlan(cfg.Workload, cfg.Seed, cfg.Seconds)
	if err != nil {
		return nil, err
	}
	ops, opsLo, reads, readsLo := p.round(cfg.Round)
	planned := time.Since(planStart)
	out := &childOut{Ops: len(ops)}

	var tr *tracer
	opts := server.Options{}
	if cfg.Traced {
		tr = newTracer()
		opts.WrapSolver = tr.wrapSolver
	}
	if p.Workload == durableJobs {
		opts.DataDir = filepath.Join(cfg.Dir, "data")
		if err := os.RemoveAll(opts.DataDir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(opts.DataDir)
	}

	e, err := openEnv(opts, tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	if err := e.warm(ctx, p.Warm); err != nil {
		return nil, err
	}
	// The bodies too costly to build in the plan are built after set-up,
	// which keeps set-up time and generation time apart; ReadyAt leaves
	// out the planning done before set-up.
	out.ReadyAt = time.Now().Add(-planned).UnixNano()
	if setupOnly {
		out.set("gen_s", planned.Seconds(), "s")
		return out, nil
	}
	genStart := time.Now()
	if err := materialize(ops); err != nil {
		return nil, err
	}
	out.set("gen_s", (planned + time.Since(genStart)).Seconds(), "s")

	heapSetup := liveHeapMB()
	gc0, cpu0 := gcCPU()
	before, err := e.scrape(ctx)
	if err != nil {
		return nil, err
	}
	// keep picks, by position in this round, the compare responses the
	// oracle checks row by row.
	keep := func(i int) bool { return ops[i].Kind == kindCompare && (opsLo+i)%sampleEvery == 0 }
	var lat, first, late, rows []float64
	var classes []string // latency class of each ops latency in lat and first
	var ends []time.Time
	var counters []map[string]float64 // /metrics deltas, one per server life

	// record counts one operation and keeps its digest and completion;
	// sent is the request whose lateness (send after due) is counted.
	record := func(o op, i int, rp reply, want int, sent reply) {
		out.Attempted++
		if err := check(o, rp, want); err != nil {
			out.fail("%s op %d: %v", o.Kind, i, err)
			out.Digests = append(out.Digests, "")
			return
		}
		out.Digests = append(out.Digests, rp.Digest)
		ends = append(ends, rp.End)
		rows = append(rows, float64(o.Rows))
		late = append(late, ms(sent.Send.Sub(sent.Due)))
	}

	// throughput sets ops_per_s and rows_per_s from the completions so far.
	throughput := func(start time.Time) {
		ones := make([]float64, len(ends))
		for i := range ones {
			ones[i] = 1
		}
		out.set("ops_per_s", rate(start, ends, ones), "1/s")
		out.set("rows_per_s", rate(start, ends, rows), "1/s")
	}

	switch p.Workload {
	case durableJobs:
		start := time.Now()
		jrs := make([]jobReply, len(ops))
		closedLoop(ctx, len(ops), func(i int, due time.Time) { jrs[i] = e.c.job(ctx, ops[i], due) })
		var submit, turnaround []float64
		for i, jr := range jrs {
			if err := check(ops[i], jr.Submit, http.StatusAccepted); err != nil {
				out.Attempted++
				out.fail("job %d submit: %v", opsLo+i, err)
				out.Digests = append(out.Digests, "")
				continue
			}
			record(ops[i], opsLo+i, jr.Stream, http.StatusOK, jr.Submit)
			submit = append(submit, ms(jr.Submit.End.Sub(jr.Submit.Send)))
			turnaround = append(turnaround, ms(jr.Stream.latency()))
			first = append(first, ms(jr.Stream.firstRow()))
		}
		// Throughput is the job phase's: jobs and their rows per second.
		throughput(start)
		out.set("submit_p50_ms", percentile(submit, 50), "ms")
		out.set("turnaround_p50_ms", percentile(turnaround, 50), "ms")
		out.set("turnaround_p95_ms", percentile(turnaround, 95), "ms")

		after, err := e.scrape(ctx)
		if err != nil {
			return nil, err
		}
		counters = append(counters, delta(before, after))
		// Restart over the same directory: the reads find an empty
		// in-memory cache and only the disk tier to answer from.
		if err := e.close(); err != nil {
			return nil, err
		}
		e = nil
		reopen := time.Now()
		if e, err = openEnv(opts, tr); err != nil {
			return nil, err
		}
		out.set("reopen_s", time.Since(reopen).Seconds(), "s")
		if before, err = e.scrape(ctx); err != nil {
			return nil, err
		}
		reps := openLoop(ctx, e.c, reads, time.Now().Add(-reads[0].At), func(int) bool { return false })
		for i, rp := range reps {
			record(reads[i], len(p.Ops)+readsLo+i, rp, http.StatusOK, rp)
			lat = append(lat, ms(rp.latency()))
		}
	default:
		// Due times count from the round's first op.
		start := time.Now().Add(-ops[0].At)
		var reps []reply
		if p.Open {
			reps = openLoop(ctx, e.c, ops, start, keep)
		} else {
			reps = make([]reply, len(ops))
			closedLoop(ctx, len(ops), func(i int, due time.Time) {
				reps[i] = e.c.do(ctx, http.MethodPost, ops[i].path(), ops[i].Body, keep(i))
				reps[i].Due = due
			})
		}
		for i, rp := range reps {
			record(ops[i], opsLo+i, rp, http.StatusOK, rp)
			if keep(i) && rp.Body != nil {
				if out.Bodies == nil {
					out.Bodies = map[int]json.RawMessage{}
				}
				out.Bodies[opsLo+i] = rp.Body
			}
			lat = append(lat, ms(rp.latency()))
			first = append(first, ms(rp.firstRow()))
			classes = append(classes, ops[i].Class)
		}
		throughput(start)
	}

	after, err := e.scrape(ctx)
	if err != nil {
		return nil, err
	}
	counters = append(counters, delta(before, after))
	if p.Workload == durableJobs {
		// Every read is a scenario a job computed, so after the restart
		// the disk tier must answer all of them without a design.
		if d := counters[1]["multisite_memo_designs_total"]; d != 0 {
			out.fail("reads phase designed %v times; every read should be a disk-tier hit", d)
		}
	}
	out.set("heap_retained_mb", liveHeapMB()-heapSetup, "MB")
	// The runtime updates its CPU classes when a collection ends, so this
	// reading follows liveHeapMB's forced collections and includes them.
	gc1, cpu1 := gcCPU()
	out.set("runtime.gc_cpu_frac", ratio(gc1-gc0, cpu1-cpu0), "frac")

	latencyStats(out, lat, classes)
	firstP50, _ := classP50(first, classes)
	out.set("first_row_p50_ms", firstP50, "ms")
	out.set("client.late_p99_ms", percentile(late, 99), "ms")
	c := sum(counters)
	out.set("resultcache.hit_ratio", ratio(c["multisite_cache_hits_total"]+c["multisite_cache_dedups_total"],
		c["multisite_cache_hits_total"]+c["multisite_cache_dedups_total"]+c["multisite_cache_computes_total"]), "frac")
	out.set("resultcache.evictions", c["multisite_cache_evictions_total"], "count")
	out.set("engine.memo_hit_ratio", ratio(c["multisite_memo_requests_total"]-c["multisite_memo_designs_total"],
		c["multisite_memo_requests_total"]), "frac")
	out.set("diskcache.hit_ratio", ratio(c["multisite_diskcache_hits_total"],
		c["multisite_diskcache_hits_total"]+c["multisite_diskcache_misses_total"]), "frac")
	out.set("fail_frac", ratio(float64(out.Failed), float64(out.Attempted)), "frac")

	if tr != nil {
		// Closing waits for in-flight handlers, so every span has ended.
		err := e.close()
		e = nil
		if err != nil {
			return nil, err
		}
		spans := tr.snapshot()
		selfTimes(spans)
		var solves, transport []float64
		for _, s := range spans {
			switch {
			case strings.HasPrefix(s.Name, "solve."):
				solves = append(solves, float64(s.dur())/1e6)
			case s.Name == "client.request" && s.Parent == 0:
				transport = append(transport, float64(s.Self)/1e6)
			}
		}
		out.set("solve.solve_ms", median(solves), "ms")
		out.set("transport_p50_ms", percentile(transport, 50), "ms")
		if err := writeJSON(filepath.Join(cfg.Dir, "spans-http.json"), spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func delta(before, after map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func sum(maps []map[string]float64) map[string]float64 {
	s := map[string]float64{}
	for _, m := range maps {
		for k, v := range m {
			s[k] += v
		}
	}
	return s
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
