package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"multisite/internal/benchdata"
	"multisite/internal/cli"
	"multisite/internal/jobs"
	"multisite/internal/resultcache"
	"multisite/internal/soc"
)

// computeEntry runs one scenario through computeSnapshot, as /v1/optimize
// does, and returns the result-cache entry it produced.
func computeEntry(t *testing.T, s *Server, req ScenarioRequest, timeout time.Duration) cachedResult {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	o, _, err := parseOp(jobs.TypeOptimize, body)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, _, err := s.computeSnapshot(ctx, s.memoFor(o), o.chip, o.solvers[0], o.key, o.cfg, false)
	if err != nil {
		t.Fatalf("%s under %s: %v", req.SOC, o.solvers[0], err)
	}
	return res
}

// checkView fails unless an entry's view equals decoding its bytes, which
// is what every handler read before the view was kept in the entry.
func checkView(t *testing.T, res cachedResult) {
	t.Helper()
	var decoded snapshotView
	if err := json.Unmarshal(res.data, &decoded); err != nil {
		t.Fatalf("entry bytes do not decode: %v", err)
	}
	if !reflect.DeepEqual(res.view, decoded) {
		t.Errorf("view %+v, decoded %+v", res.view, decoded)
	}
}

// TestCachedViewMatchesDecode pins that reading the view kept beside an
// entry's bytes, instead of decoding them, cannot change a row byte or a
// header. It covers every built-in chip under the heuristic and the
// baseline, each re-scored under several cost models, plus a
// proven-optimal portfolio result and a degraded one, which a deadline
// cuts from a server whose exact backend hangs.
func TestCachedViewMatchesDecode(t *testing.T) {
	s := mustNew(t, Options{Breaker: lenientBreaker()})
	indexTime := 0.3
	costModels := []ScenarioRequest{
		{},
		{ContactYield: 0.999, Retest: true},
		{Yield: 0.9, AbortOnFail: true},
		{ContactYield: 0.99, Yield: 0.95, Retest: true, AbortOnFail: true, IndexTime: &indexTime, ControlPins: -1},
	}
	for _, name := range benchdata.Names() {
		for _, solver := range []string{"heuristic", "baseline"} {
			for _, req := range costModels {
				req.SOC, req.Solver = name, solver
				checkView(t, computeEntry(t, s, req, 0))
			}
		}
	}

	optimal := computeEntry(t, s, ScenarioRequest{SOC: "d695", Solver: "portfolio"}, 0)
	if !optimal.view.Optimal || optimal.view.Degraded {
		t.Fatalf("d695 portfolio view %+v, want optimal and not degraded", optimal.view)
	}
	checkView(t, optimal)

	hung, _ := chaosServer(t, "hang,repeat", Options{Breaker: lenientBreaker()})
	text := soc.WriteString(benchdata.Adversarial())
	degraded := computeEntry(t, hung, ScenarioRequest{SOCText: text, Solver: "portfolio", Channels: 256, Depth: 16000},
		300*time.Millisecond)
	if !degraded.view.Degraded || degraded.view.Optimal {
		t.Fatalf("adversarial portfolio view %+v under 300ms, want degraded and not optimal", degraded.view)
	}
	checkView(t, degraded)
}

// TestUnencodableResultFailsUncached pins how the one failure a snapshot
// render can have shows on each endpoint. A clock so slow that every test
// time is +Inf cannot be encoded as JSON: the optimize is a 422 carrying
// json.Marshal's error, the sweep row and each compare row carry that
// error, and nothing enters the cache. The optimize's compute fails in
// the result cache; a row never reaches it, and renders here only to
// fail with the encoder's error.
func TestUnencodableResultFailsUncached(t *testing.T) {
	const d695Hash = "12ddb13162c9e47a08b0e2ef8f01048d1035cde1f9a1c92f0395276902351f02"
	for _, tc := range []struct {
		path, body string
		status     int
		want       string
		misses     int64
	}{
		{"/v1/optimize", `{"soc":"d695","clock_hz":1e-320}`, http.StatusUnprocessableEntity,
			`{"error":"json: unsupported value: +Inf"}`, 1},
		{"/v1/sweep", `{"soc":"d695","clock_hz":1e-320}`, http.StatusOK,
			`{"index":0,"name":"d695","error":"json: unsupported value: +Inf"}`, 0},
		{"/v1/compare", `{"soc":"d695","clock_hz":1e-320,"solvers":["heuristic","baseline"]}`, http.StatusOK,
			`{"soc":"d695","soc_hash":"` + d695Hash + `","rows":[` +
				`{"solver":"heuristic","error":"json: unsupported value: +Inf"},` +
				`{"solver":"baseline","error":"json: unsupported value: +Inf"}]}`, 0},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			srv, ts := newTestServer(t, Options{})
			resp, data := post(t, ts, tc.path, tc.body)
			if resp.StatusCode != tc.status || string(data) != tc.want+"\n" {
				t.Errorf("got %d %s, want %d %s", resp.StatusCode, data, tc.status, tc.want)
			}
			want := resultcache.Stats{Misses: tc.misses, Failures: tc.misses}
			if st := srv.cache.Stats(); st != want {
				t.Errorf("cache stats %+v, want %+v", st, want)
			}
		})
	}
}

// TestSweepAllocsPerRow pins the allocation cost of the sweep-stream row
// path, in allocations and in bytes: every row re-scores a design the memo
// holds, and none touches the result cache or renders a snapshot. A row
// takes about 2.4 allocations and 390 B; under -race, up to 4.7 and 650 B.
// One that renders a snapshot (the snapshot, its chip's hash, the
// architecture texts and the encode) takes about 140 allocations, one that
// also stores its view in the result cache about 8.6 and 0.97 KB, and one
// that also scores and keeps both curves about 13 and 6.8 KB. The race
// detector's own allocations get bounds of their own, so a plain run's
// bounds stay tight.
func TestSweepAllocsPerRow(t *testing.T) {
	const (
		runs = 10
		rows = 6 * 4 * 2 // depths × contact yields × retest
	)
	s := mustNew(t, Options{Workers: 1})
	// sweepOp builds a sweep over six fixed depths (so the six designs are
	// shared by every sweep) and four contact yields new to the i-th sweep
	// (so no row repeats an earlier row's scenario).
	sweepOp := func(i int) *op {
		t.Helper()
		cys := make([]float64, 4)
		for j := range cys {
			cys[j] = 1 - float64(4*i+j+1)*1e-5
		}
		body, err := json.Marshal(SweepRequest{
			ScenarioRequest: ScenarioRequest{SOC: "p22810", Channels: 256},
			Depths:          cli.SizeList{1 << 20, 2 << 20, 3 << 20, 4 << 20, 6 << 20, 8 << 20},
			ContactYields:   cys,
			RetestBoth:      true,
		})
		if err != nil {
			t.Fatal(err)
		}
		o, _, err := parseOp(jobs.TypeSweep, body)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	var failed []byte
	run := func(o *op) {
		s.sweep(context.Background(), o, false, func(row []byte, _ bool) error {
			if failed == nil && bytes.Contains(row, []byte(`"error"`)) {
				failed = row
			}
			return nil
		})
	}
	run(sweepOp(0))            // designs the six depths
	ops := make([]*op, runs+1) // AllocsPerRun makes one warm-up call
	for i := range ops {
		ops[i] = sweepOp(i + 1)
	}
	_, designed := s.memo.Stats()
	next := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		run(ops[next])
		next++
	})
	runtime.ReadMemStats(&after)
	bytesPerRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(ops)*rows)
	if failed != nil {
		t.Fatalf("sweep row failed: %s", failed)
	}
	if _, after := s.memo.Stats(); after != designed {
		t.Fatalf("memo designed %d times while timed; every row must hit it", after-designed)
	}
	t.Logf("%.0f allocs per sweep, %.1f and %.0f B per row", allocs, allocs/rows, bytesPerRow)
	maxAllocs, maxBytes := 3.0, 480.0
	if raceEnabled {
		maxAllocs, maxBytes = 6, 800
	}
	if perRow := allocs / rows; perRow > maxAllocs {
		t.Errorf("%.0f allocations per sweep, %.1f per row; want at most %.0f per row", allocs, perRow, maxAllocs)
	}
	if bytesPerRow > maxBytes {
		t.Errorf("%.0f B allocated per row; want at most %.0f", bytesPerRow, maxBytes)
	}
}
