package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// inProcess runs a phase in the test process, through the same JSON
// report a child process prints. Process start-up is what makes the real
// benchmark slow to run at a tiny scale; every other step is the same.
func inProcess(ctx context.Context, phase string, cfg runConfig) (*childOut, error) {
	var buf bytes.Buffer
	launched := time.Now()
	if err := runChild(ctx, phase, cfg, &buf); err != nil {
		return nil, err
	}
	var out childOut
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		return nil, err
	}
	setSetup(&out, launched)
	return &out, nil
}

func TestPlansByteIdenticalPerSeed(t *testing.T) {
	for _, w := range workloads {
		render := func(seed int64) []byte {
			p, err := buildPlan(w, seed, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if err := materialize(p.Ops); err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		a, b, c := render(1), render(1), render(2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different plans", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same plan", w)
		}
	}
}

func TestPlanShapes(t *testing.T) {
	p, err := buildPlan(hotQuery, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ops) != 4000 || len(p.Warm) != 36 || !p.Open {
		t.Errorf("hot-query: %d ops, %d warm-ups, open %t", len(p.Ops), len(p.Warm), p.Open)
	}
	for i := 1; i < len(p.Ops); i++ {
		if p.Ops[i].At <= p.Ops[i-1].At {
			t.Fatalf("hot-query arrivals not increasing at %d", i)
		}
	}
	d, err := buildPlan(durableJobs, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, o := range d.Reads {
		if seen[string(o.Body)] {
			t.Fatalf("durable-jobs reads repeat a scenario: %s", o.Body)
		}
		seen[string(o.Body)] = true
	}
	if len(d.Ops) != 200 || len(d.Reads) != 2000 {
		t.Errorf("durable-jobs: %d jobs, %d reads", len(d.Ops), len(d.Reads))
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{7, 1}, -0.5, 8.5}, // Python extrapolates on two samples
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestRateIgnoresASlowSpell(t *testing.T) {
	// 10 completions a second, with a spell at 2 a second from 20 s to
	// 30 s: the plain average is 8.2/s, the window median about 10/s.
	start := time.Unix(0, 0)
	var ends []time.Time
	at := time.Duration(0)
	for at < 50*time.Second {
		step := 100 * time.Millisecond
		if at >= 20*time.Second && at < 30*time.Second {
			step = 500 * time.Millisecond
		}
		at += step
		ends = append(ends, start.Add(at))
	}
	ones := make([]float64, len(ends))
	for i := range ones {
		ones[i] = 1
	}
	if avg := float64(len(ends)) / at.Seconds(); avg > 8.5 {
		t.Fatalf("test phase averages %v/s; the spell should pull it below 8.5", avg)
	}
	if got := rate(start, ends, ones); math.Abs(got-10) > 0.5 {
		t.Errorf("rate = %v, want about 10", got)
	}
	if got := rate(start, ends[:3], ones[:3]); got != 10 {
		t.Errorf("short phase rate = %v, want its average 10", got)
	}
}

func TestWindowedPercentileIgnoresASlowSpell(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = 1 + float64(i%10)/10
	}
	for i := 500; i < 650; i++ { // a spell covering 7.5% of the samples
		xs[i] = 10
	}
	if p := percentile(xs, 95); p != 10 {
		t.Fatalf("whole-sample p95 = %v; the spell should own it", p)
	}
	if got := windowed(xs, 95); got != 1.9 {
		t.Errorf("windowed p95 = %v, want 1.9", got)
	}
	if got, want := windowed(xs[:300], 50), percentile(xs[:300], 50); got != want {
		t.Errorf("windowed p50 of one window = %v, want the plain %v", got, want)
	}
}

// inv1 checks the conservation rule on one request's spans (self times
// already filled): summed self time cannot exceed the root's wall time
// times the request's peak parallelism, the most spans of the request
// that are open with no open child at one instant. For a request whose
// layers run one after another the peak is 1 and the rule reads: the
// layers' self times sum to no more than the request's wall time.
func inv1(reqSpans []span) (sumSelf, wall int64, peak int, ok bool) {
	ids := map[int64]bool{}
	for _, s := range reqSpans {
		ids[s.ID] = true
	}
	for _, s := range reqSpans {
		sumSelf += s.Self
		if !ids[s.Parent] {
			wall = max(wall, s.dur())
		}
	}
	peak = max(peakLeaves(reqSpans), 1)
	return sumSelf, wall, peak, sumSelf <= wall*int64(peak)
}

// peakLeaves is the largest number of spans open at one instant that have
// no child open at that instant.
func peakLeaves(spans []span) int {
	times := make([]int64, 0, 2*len(spans))
	for _, s := range spans {
		times = append(times, s.Start, s.End)
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	peak := 0
	for k := 0; k+1 < len(times); k++ {
		if times[k] == times[k+1] {
			continue
		}
		mid := times[k] + (times[k+1]-times[k])/2
		open := map[int64]bool{}
		for _, s := range spans {
			if s.Start <= mid && mid < s.End {
				open[s.ID] = true
			}
		}
		busyParents := map[int64]bool{}
		for _, s := range spans {
			if open[s.ID] && open[s.Parent] {
				busyParents[s.Parent] = true
			}
		}
		peak = max(peak, len(open)-len(busyParents))
	}
	return peak
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 120}, // runs past the root
		{ID: 5, Parent: 2, Name: "a1", Start: 12, End: 20},
	}
	selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 20, 2: 20 - 8, 3: 30, 4: 40, 5: 8}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %s self %d, want %d", s.Name, s.Self, want[s.ID])
		}
	}
	// Two children of the root overlap, so the peak parallelism is 2 and
	// the self times may sum past the root's wall time, up to twice it.
	sum, wall, peak, ok := inv1(spans[:4])
	if peak != 2 || !ok || wall != 100 || sum != 40+12+30+40 {
		t.Errorf("inv1 = %d, %d, %d, %t", sum, wall, peak, ok)
	}
	serial := []span{{ID: 1, Start: 0, End: 10, Self: 6}, {ID: 2, Parent: 1, Start: 2, End: 6, Self: 5}}
	if _, _, _, ok := inv1(serial); ok {
		t.Error("inv1 accepted self times that exceed a serial request's wall time")
	}
}

func TestClassify(t *testing.T) {
	lower := specMetric{Name: "p50_ms", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		a, b   []float64
		metric specMetric
		want   string
	}{
		{"faster", parent, scale(0.8), lower, improved},
		{"same", parent, parent, lower, unchanged},
		{"slower past the bound", parent, scale(1.3), lower, regressed},
		{"slower within the bound", parent, scale(1.05), lower, unchanged},
		{"noisy parent", []float64{50, 150, 60, 140, 55, 145, 100, 100, 70, 130}, scale(1.3), lower, unresolved},
		{"throughput drop", parent, scale(0.7), specMetric{Better: "higher", Bound: 0.1}, regressed},
		{"faster on too few pairs", parent[:5], scale(0.8)[:5], lower, unchanged},
	} {
		if got := classify(c.a, c.b, c.metric).Status; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareInvalidRuns checks that a change whose open-loop generator
// fell behind on more runs than the parent's is never passed as
// unchanged, and that a clean pair of records passes.
func TestCompareInvalidRuns(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	write := func(valid ...bool) string {
		var f resultFile
		for _, v := range valid {
			f.Runs = append(f.Runs, &record{Workload: hotQuery, Attempted: 10, Valid: v,
				Metrics: map[string]metric{"p50_ms": {1, "ms"}}})
		}
		path := filepath.Join(t.TempDir(), "result.json")
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	all := write(true, true, true, true)
	for _, c := range []struct {
		name   string
		a, b   string
		status string
	}{
		{"all valid", all, all, ""},
		{"change lost runs", all, write(true, false, true, false), unresolved},
		{"change has none", all, write(false, false, false, false), unresolved},
		{"parent has none", write(false, false), all, unresolved},
	} {
		var out bytes.Buffer
		bad, err := compareFiles(spec, c.a, c.b, &out)
		if err != nil {
			t.Fatal(err)
		}
		row := strings.Contains(out.String(), "valid runs")
		if bad != (c.status != "") || row != (c.status != "") || !strings.Contains(out.String(), "fail_frac") {
			t.Errorf("%s: bad %t, validity row %t:\n%s", c.name, bad, row, out.String())
		}
	}
	if validity(4, 4) != "" || validity(3, 4) != "" || validity(4, 3) != unresolved || validity(0, 4) != unresolved {
		t.Error("validity verdicts wrong")
	}
}

func TestClassP50(t *testing.T) {
	// Two classes of equal share: the plain median sits at the top of the
	// fast mode, each class's own median in the middle of its mode.
	var xs []float64
	var classes []string
	for i := range 100 {
		xs = append(xs, 10+float64(i%5), 40+float64(i%5))
		classes = append(classes, classGenerated, classRevision)
	}
	p50, by := classP50(xs, classes)
	if by[classGenerated] != 12 || by[classRevision] != 42 || math.Abs(p50-math.Sqrt(12*42)) > 1e-9 {
		t.Errorf("classP50 = %v, %v", p50, by)
	}
	if p50, by := classP50(xs, nil); by != nil || p50 != percentile(xs, 50) {
		t.Errorf("one class: %v, %v", p50, by)
	}
}

// TestPerLayerMoves checks per_layer.json, the machine-readable map from
// each per-layer metric to the end-to-end metrics and workloads it should
// move, against BENCHMARK.json.
func TestPerLayerMoves(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("per_layer.json")
	if err != nil {
		t.Fatal(err)
	}
	var moves []struct {
		Name  string `json:"name"`
		Moves []struct {
			Metric   string `json:"metric"`
			Workload string `json:"workload"`
		} `json:"moves"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&moves); err != nil {
		t.Fatal(err)
	}
	endToEnd := map[string]bool{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = true
	}
	if len(moves) != len(spec.PerLayer) {
		t.Fatalf("per_layer.json has %d metrics, BENCHMARK.json %d", len(moves), len(spec.PerLayer))
	}
	for i, m := range moves {
		if m.Name != spec.PerLayer[i].Name {
			t.Errorf("entry %d is %s, BENCHMARK.json has %s", i, m.Name, spec.PerLayer[i].Name)
		}
		for _, mv := range m.Moves {
			if !endToEnd[mv.Metric] || !slices.Contains(workloads, mv.Workload) {
				t.Errorf("%s moves unknown %s on %s", m.Name, mv.Metric, mv.Workload)
			}
		}
	}
}

// TestTracedRunConservation runs the traced pass of two workloads at a
// small scale and checks the INV-1 rule on every request's spans.
func TestTracedRunConservation(t *testing.T) {
	for _, w := range []string{hotQuery, coldDesign} {
		cfg := runConfig{Workload: w, Seed: 3, Seconds: 0.05, Traced: true, Dir: t.TempDir()}
		out, err := measure(context.Background(), cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		if out.Failed != 0 {
			t.Fatalf("%s: %d failed: %v", w, out.Failed, out.Failures)
		}
		data, err := os.ReadFile(filepath.Join(cfg.Dir, "spans-http.json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatal(err)
		}
		byReq := map[int64][]span{}
		for _, s := range spans {
			if s.Req != 0 {
				byReq[s.Req] = append(byReq[s.Req], s)
			}
		}
		serial := 0
		for req, ss := range byReq {
			sum, wall, peak, ok := inv1(ss)
			if !ok {
				t.Errorf("%s request %d: self times sum to %d ns over a %d ns wall at parallelism %d", w, req, sum, wall, peak)
			}
			if peak == 1 {
				serial++
			}
		}
		if len(byReq) < out.Attempted || serial == 0 {
			t.Errorf("%s: %d traced requests (%d serial) for %d operations", w, len(byReq), serial, out.Attempted)
		}
	}
}

// TestSmokeAllWorkloads runs every workload end to end at about 1% of
// the default length — every round, the traced pass and the replay — and
// renders both metric lists of BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, w := range workloads {
		cfg := runConfig{Workload: w, Seed: 1, Seconds: 0.1, Dir: filepath.Join(t.TempDir(), w)}
		rec, doc, err := runWorkload(context.Background(), cfg, 1, true, inProcess)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Correct || rec.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %s", w, rec.Attempted, rec.Failed, strings.Join(rec.Failures, "; "))
		}
		for _, list := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			if _, err := summaryLine(rec, list); err != nil {
				t.Errorf("%s: %v", w, err)
			}
		}
		if doc == nil || len(doc.Sources) != 2 || len(doc.Sources[0].Spans) == 0 || len(doc.Sources[1].Spans) == 0 {
			t.Errorf("%s: trace lacks http or replay spans", w)
		}
	}
	t.Logf("four workloads at 1%% scale in %v", time.Since(start).Round(time.Millisecond))
}
