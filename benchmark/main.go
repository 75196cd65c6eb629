// Command servedbench is the served-path benchmark of the multisite
// optimization service. It drives an in-process server (internal/server)
// over real loopback TCP with four seeded workloads — hot-query,
// cold-design, sweep-stream and durable-jobs — and reports end-to-end
// metrics from an untraced pass, per-layer metrics from a traced pass and
// a serial layer replay, and checks every 8th response against the
// replay byte for byte. See README.md for the workloads and metrics.
//
// Every workload phase runs in a fresh child process (the binary re-execs
// itself with -child), so process-global state such as the wrapper-table
// cache never carries over from one workload, or one set-up sample, to
// the next.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh -seed N -out DIR [-runs K]   # all four workloads
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"
)

// setupSamples is how many fresh processes set up the server per run;
// setup_s is their median.
const setupSamples = 5

// runLimit bounds one workload run, all its child processes included.
const runLimit = 170 * time.Second

// lateLimitMS flags an open-loop run whose generator fell behind its
// schedule: its latencies measure the generator, so its metrics are not
// compared, and losing runs this way leaves a comparison unresolved.
const lateLimitMS = 10

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of a run; workload sizes scale with it")
	trace := fs.Int("trace", -1, "0: print end-to-end metrics; 1: print per-layer metrics from a traced pass; default: both")
	out := fs.String("out", "", "directory for result.json and trace.json (default .bench_build/out/...)")
	runs := fs.Int("runs", 1, "repeat the whole run this many times (result records for -compare)")
	benchFile := fs.String("bench", "BENCHMARK.json", "benchmark definition: metric names, units and bounds")
	compare := fs.Bool("compare", false, "compare two result files given as arguments: -compare A.json B.json")
	child := fs.String("child", "", "internal: run one phase (setup, measure, replay) in this process")
	traced := fs.Bool("traced", false, "internal: the child's pass is traced")
	round := fs.Int("round", 0, "internal: the round of the plan the child sends")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if *child != "" {
		ctx, cancel := context.WithTimeout(ctx, runLimit)
		defer cancel()
		cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Traced: *traced, Round: *round, Dir: *out}
		if err := runChild(ctx, *child, cfg, stdout); err != nil {
			fmt.Fprintf(stderr, "servedbench %s %s: %v\n", *child, *workload, err)
			return 1
		}
		return 0
	}
	spec, err := readSpec(*benchFile)
	if err != nil {
		fmt.Fprintln(stderr, "servedbench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "servedbench: -compare takes two result files")
			return 2
		}
		bad, err := compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "servedbench:", err)
			return 1
		}
		if bad {
			return 1
		}
		return 0
	}
	if *trace < -1 || *trace > 1 || *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "servedbench: need -trace 0 or 1, -seconds > 0 and -runs >= 1")
		return 2
	}

	names := workloads
	if *workload != "" {
		if !slices.Contains(workloads, *workload) {
			fmt.Fprintf(stderr, "servedbench: unknown workload %q (want one of %v)\n", *workload, workloads)
			return 2
		}
		names = []string{*workload}
	}
	dir := *out
	if dir == "" {
		dir = filepath.Join(".bench_build", "out", fmt.Sprintf("%s-s%d-t%d", orAll(*workload), *seed, *trace))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "servedbench:", err)
		return 1
	}
	// Set-up time is an end-to-end metric, so it is sampled whenever
	// end-to-end metrics are printed; the traced pass runs whenever
	// per-layer metrics are.
	setups := setupSamples
	if *trace == 1 {
		setups = 1
	}
	withTrace := *trace != 0

	var recs []*record
	var traces []traceDoc
	for r := 0; r < *runs; r++ {
		traces = traces[:0]
		for _, w := range names {
			cfg := runConfig{Workload: w, Seed: *seed, Seconds: *seconds, Dir: filepath.Join(dir, w)}
			wctx, cancel := context.WithTimeout(ctx, runLimit)
			rec, doc, err := runWorkload(wctx, cfg, setups, withTrace, spawn)
			cancel()
			if err != nil {
				fmt.Fprintf(stderr, "servedbench %s: %v\n", w, err)
				return 1
			}
			recs = append(recs, rec)
			if doc != nil {
				traces = append(traces, *doc)
			}
			printRecord(stdout, rec)
		}
	}
	if err := writeJSON(filepath.Join(dir, "result.json"), resultFile{
		Host: thisHost(), Seed: *seed, Seconds: *seconds, Runs: recs, Summary: summarize(recs),
	}); err != nil {
		fmt.Fprintln(stderr, "servedbench:", err)
		return 1
	}
	if len(traces) > 0 {
		if err := writeJSON(filepath.Join(dir, "trace.json"), struct {
			Runs []traceDoc `json:"runs"`
		}{traces}); err != nil {
			fmt.Fprintln(stderr, "servedbench:", err)
			return 1
		}
	}
	if len(recs) == 1 && *trace >= 0 {
		list := spec.EndToEnd
		if *trace == 1 {
			list = spec.PerLayer
		}
		line, err := summaryLine(recs[0], list)
		if err != nil {
			fmt.Fprintln(stderr, "servedbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return 0
}

func orAll(w string) string {
	if w == "" {
		return "all"
	}
	return w
}

// runChild runs one phase in this process and prints its report as JSON.
func runChild(ctx context.Context, phase string, cfg runConfig, stdout io.Writer) error {
	var out *childOut
	var err error
	switch phase {
	case "setup":
		out, err = measure(ctx, cfg, true)
	case "measure":
		out, err = measure(ctx, cfg, false)
	case "replay":
		var m childOut
		data, rerr := os.ReadFile(filepath.Join(cfg.Dir, "measure.json"))
		if rerr != nil {
			return rerr
		}
		if err := json.Unmarshal(data, &m); err != nil {
			return err
		}
		out, err = replay(ctx, cfg, &m)
	default:
		return fmt.Errorf("unknown phase %q", phase)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(out)
}

// phaseRunner runs one phase of a workload and returns its report.
type phaseRunner func(ctx context.Context, phase string, cfg runConfig) (*childOut, error)

// spawn runs one phase in a fresh child process and decodes its report.
// Set-up time counts from the launch, so the process start and package
// initialization are part of it, as they are of starting a server.
func spawn(ctx context.Context, phase string, cfg runConfig) (*childOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", phase, "-workload", cfg.Workload, "-seed", strconv.FormatInt(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-round", strconv.Itoa(cfg.Round), "-out", cfg.Dir}
	if cfg.Traced {
		args = append(args, "-traced")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	launched := time.Now()
	data, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s phase: %w", phase, err)
	}
	var out childOut
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s phase report: %w", phase, err)
	}
	setSetup(&out, launched)
	return &out, nil
}

// setSetup derives setup_s from a phase's launch time and the time its
// server was ready (which already leaves input generation out).
func setSetup(out *childOut, launched time.Time) {
	if out.ReadyAt != 0 {
		out.set("setup_s", time.Unix(0, out.ReadyAt).Sub(launched).Seconds(), "s")
	}
}

// record is one workload run: every metric it measured, end-to-end,
// per-layer and workload-specific, plus the operation counts.
type record struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Correct   bool    `json:"correct"`
	// Valid is false when the open-loop generator fell behind its
	// schedule; -compare leaves such a run's metrics out and reports a
	// change with fewer valid runs than its parent as unresolved.
	Valid   bool              `json:"valid"`
	Metrics map[string]metric `json:"metrics"`
	// Rounds holds each round's own values, from which Metrics takes
	// the median.
	Rounds   []map[string]float64 `json:"rounds,omitempty"`
	Failures []string             `json:"failures,omitempty"`
}

// runWorkload runs one workload's phases, each in a fresh process: the
// untraced rounds, extra set-up samples when the rounds give fewer than
// setups, optionally the traced pass, and the replay that checks the
// untraced rounds' responses. Each metric is the median over the rounds.
func runWorkload(ctx context.Context, cfg runConfig, setups int, traced bool, run phaseRunner) (*record, *traceDoc, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	p, err := buildPlan(cfg.Workload, cfg.Seed, cfg.Seconds)
	if err != nil {
		return nil, nil, err
	}
	var rounds []*childOut
	var setupS []float64
	for r := range p.Rounds {
		c := cfg
		c.Round = r
		o, err := run(ctx, "measure", c)
		if err != nil {
			return nil, nil, err
		}
		rounds = append(rounds, o)
		setupS = append(setupS, o.Metrics["setup_s"].Value)
	}
	for len(setupS) < setups {
		o, err := run(ctx, "setup", cfg)
		if err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, o.Metrics["setup_s"].Value)
	}
	m := mergeRounds(rounds)
	rec := &record{Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Metrics: m.Metrics,
		Attempted: m.Attempted, Failed: m.Failed, Failures: m.Failures}
	for _, r := range rounds {
		vals := map[string]float64{}
		for k, v := range r.Metrics {
			vals[k] = v.Value
		}
		rec.Rounds = append(rec.Rounds, vals)
	}
	rec.Metrics["setup_s"] = metric{median(setupS), "s"}

	if traced {
		// The traced pass replays round 0, and is compared with it.
		tc := cfg
		tc.Traced = true
		t, err := run(ctx, "measure", tc)
		if err != nil {
			return nil, nil, err
		}
		for _, k := range []string{"solve.solve_ms", "transport_p50_ms"} {
			rec.Metrics[k] = t.Metrics[k]
		}
		untraced := rounds[0].Metrics["p50_ms"].Value
		rec.Metrics["trace_overhead_frac"] = metric{(t.Metrics["p50_ms"].Value - untraced) / untraced, "frac"}
		// Tracing must not change a single response.
		bad := t.Failed
		for i, d := range rounds[0].Digests {
			if d != "" && (i >= len(t.Digests) || t.Digests[i] != d) {
				bad++
			}
		}
		if bad > 0 {
			rec.Failed += bad
			rec.Failures = append(rec.Failures, fmt.Sprintf("traced pass: %d responses failed or differ from the untraced pass", bad))
		}
	}

	if err := writeJSON(filepath.Join(cfg.Dir, "measure.json"), m); err != nil {
		return nil, nil, err
	}
	rc := cfg
	rc.Traced = traced
	rp, err := run(ctx, "replay", rc)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range rp.Metrics {
		rec.Metrics[k] = v
	}
	rec.Failed = min(rec.Attempted, rec.Failed+rp.Failed)
	rec.Failures = append(rec.Failures, rp.Failures...)
	rec.Correct = rec.Failed == 0
	rec.Valid = rec.Metrics["client.late_p99_ms"].Value <= lateLimitMS
	rec.Metrics["fail_frac"] = metric{ratio(float64(rec.Failed), float64(rec.Attempted)), "frac"}

	var doc *traceDoc
	if traced {
		if doc, err = loadTrace(cfg); err != nil {
			return nil, nil, err
		}
	}
	for _, f := range []string{"measure.json", "spans-http.json", "spans-replay.json"} {
		os.Remove(filepath.Join(cfg.Dir, f))
	}
	return rec, doc, nil
}

// mergeRounds combines the rounds of one run: each metric is the median
// over the rounds, counts add up, and the digests go back into plan
// order (every round's ops, then every round's reads).
func mergeRounds(rounds []*childOut) *childOut {
	m := &childOut{Metrics: map[string]metric{}, Bodies: map[int]json.RawMessage{}}
	vals := map[string][]float64{}
	var reads []string
	for _, r := range rounds {
		for k, v := range r.Metrics {
			vals[k] = append(vals[k], v.Value)
			m.Metrics[k] = v
		}
		m.Digests = append(m.Digests, r.Digests[:r.Ops]...)
		reads = append(reads, r.Digests[r.Ops:]...)
		for k, b := range r.Bodies {
			m.Bodies[k] = b
		}
		m.Attempted += r.Attempted
		m.Failed += r.Failed
		m.Failures = append(m.Failures, r.Failures...)
	}
	m.Ops = len(m.Digests)
	m.Digests = append(m.Digests, reads...)
	for k, xs := range vals {
		m.Metrics[k] = metric{median(xs), m.Metrics[k].Unit}
	}
	return m
}

// traceDoc is one workload's trace: the spans of the traced HTTP pass and
// of the serial layer replay, with a per-span-name summary of each.
type traceDoc struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Sources  []traceSource `json:"sources"`
}

type traceSource struct {
	// Source is "http" (the traced pass: client.request > server.handler
	// > solve.*) or "replay" (replay.<kind> > layer spans).
	Source string         `json:"source"`
	Layers []layerSummary `json:"layers"`
	Spans  []span         `json:"spans"`
}

type layerSummary struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	P50us     float64 `json:"p50_us"`
	SelfP50us float64 `json:"self_p50_us"`
	SelfMS    float64 `json:"self_total_ms"`
}

func loadTrace(cfg runConfig) (*traceDoc, error) {
	doc := &traceDoc{Workload: cfg.Workload, Seed: cfg.Seed}
	for _, src := range []string{"http", "replay"} {
		data, err := os.ReadFile(filepath.Join(cfg.Dir, "spans-"+src+".json"))
		if err != nil {
			return nil, err
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			return nil, err
		}
		doc.Sources = append(doc.Sources, traceSource{Source: src, Layers: summarizeSpans(spans), Spans: spans})
	}
	return doc, nil
}

func summarizeSpans(spans []span) []layerSummary {
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(s.Self)/1e3)
	}
	var out []layerSummary
	for name, d := range durs {
		total := 0.0
		for _, v := range selfs[name] {
			total += v
		}
		out = append(out, layerSummary{Name: name, Count: len(d), P50us: median(d),
			SelfP50us: median(selfs[name]), SelfMS: total / 1e3})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMS > out[b].SelfMS })
	return out
}

// hostInfo names the machine a result was measured on.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
}

func thisHost() hostInfo {
	return hostInfo{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH}
}

// resultFile is result.json: every run's record and, per workload and
// metric, the median and quartiles over the runs.
type resultFile struct {
	Host    hostInfo                          `json:"host"`
	Seed    int64                             `json:"seed"`
	Seconds float64                           `json:"seconds"`
	Runs    []*record                         `json:"runs"`
	Summary map[string]map[string]summaryStat `json:"summary"`
}

type summaryStat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

func summarize(recs []*record) map[string]map[string]summaryStat {
	vals := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range recs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for k, m := range r.Metrics {
			vals[r.Workload][k] = append(vals[r.Workload][k], m.Value)
			units[k] = m.Unit
		}
	}
	out := map[string]map[string]summaryStat{}
	for w, byName := range vals {
		out[w] = map[string]summaryStat{}
		for k, xs := range byName {
			q1, q3 := quartiles(xs)
			out[w][k] = summaryStat{Median: median(xs), Q1: q1, Q3: q3, Unit: units[k]}
		}
	}
	return out
}

func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "%s seed %d: ops %d, ops_failed %d, correct %t, valid %t\n",
		rec.Workload, rec.Seed, rec.Attempted, rec.Failed, rec.Correct, rec.Valid)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-24s %14.4f %s\n", k, rec.Metrics[k].Value, rec.Metrics[k].Unit)
	}
}

// summaryLine is the one-line JSON result: the counts and exactly the
// listed metrics, each in the unit the benchmark definition declares.
func summaryLine(rec *record, list []specMetric) ([]byte, error) {
	ms := map[string]metric{}
	for _, sm := range list {
		m, ok := rec.Metrics[sm.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", sm.Name)
		}
		if m.Unit != sm.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, defined in %s", sm.Name, m.Unit, sm.Unit)
		}
		ms[sm.Name] = m
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, ms})
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
