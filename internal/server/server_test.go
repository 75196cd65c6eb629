package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/cachekey"
	"multisite/internal/core"
	"multisite/internal/resultcache"
	"multisite/internal/soc"
	"multisite/internal/solve"
)

var update = flag.Bool("update", false, "rewrite golden HTTP outputs")

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

const optimizeD695 = `{"soc":"d695","channels":256,"depth":"64K","clock_hz":5e6}`

// TestOptimizeE2EGolden pins the /v1/optimize response for d695 on the
// 256-channel, 64K-depth cell byte-for-byte, and cross-checks it against
// a direct core.Optimize run — the same numbers the experiment goldens
// (table1's d695 rows) are derived from.
func TestOptimizeE2EGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, data := post(t, ts, "/v1/optimize", optimizeD695)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type = %q", got)
	}
	checkGolden(t, "optimize_d695.golden", data)

	snap := new(core.Snapshot)
	if err := json.Unmarshal(data, snap); err != nil {
		t.Fatal(err)
	}
	direct, err := core.Optimize(benchdata.Shared("d695"), core.Config{
		ATE:   ate.ATE{Channels: 256, Depth: 64 << 10, ClockHz: 5e6},
		Probe: ate.DefaultProbeStation(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Best != direct.Best {
		t.Errorf("served best %+v != direct best %+v", snap.Best, direct.Best)
	}
	if snap.Channels != direct.Step1.Channels() || snap.MaxSites != direct.MaxSites {
		t.Errorf("served k=%d nmax=%d, direct k=%d nmax=%d",
			snap.Channels, snap.MaxSites, direct.Step1.Channels(), direct.MaxSites)
	}
}

// TestSweepE2EGolden pins a small d695 sweep's NDJSON stream.
func TestSweepE2EGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"soc":"d695","channels":256,"clock_hz":5e6,"depths":"48K,64K","contact_yields":[1,0.99]}`
	resp, data := post(t, ts, "/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", got)
	}
	if got := resp.Header.Get("X-Sweep-Scenarios"); got != "4" {
		t.Errorf("X-Sweep-Scenarios = %q, want 4", got)
	}
	checkGolden(t, "sweep_d695.golden", data)

	// Every line is valid JSON with increasing indices.
	sc := bufio.NewScanner(bytes.NewReader(data))
	i := 0
	for sc.Scan() {
		var row SweepRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("row %d: %v: %s", i, err, sc.Bytes())
		}
		if row.Index != i {
			t.Errorf("row %d has index %d", i, row.Index)
		}
		if row.Error != "" {
			t.Errorf("row %d failed: %s", i, row.Error)
		}
		i++
	}
	if i != 4 {
		t.Errorf("got %d rows, want 4", i)
	}
}

// gatedSolver is a backend whose designs at one depth wait until release
// is closed.
type gatedSolver struct {
	solve.Solver
	depth   int64
	release <-chan struct{}
}

func (g gatedSolver) Solve(ctx context.Context, s *soc.SOC, cfg core.Config) (*core.Result, error) {
	if cfg.ATE.Depth == g.depth {
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.Solver.Solve(ctx, s, cfg)
}

// TestSweepStreamsReadyRows: a sweep's rows reach the client while a
// later row still waits on its design, not only when the sweep ends. The
// heuristic's design for the second depth waits until the client has
// read rows 0–7, the first depth's; the client must read them under a
// deadline before it releases that design. A handler that flushed only
// at the end would keep them in its buffer, and the read would time out.
func TestSweepStreamsReadyRows(t *testing.T) {
	const (
		rows, first = 16, 8
		body        = `{"soc":"d695","channels":256,"depths":"64K,128K",` +
			`"contact_yields":[1,0.999,0.99,0.98],"retest_both":true}`
	)
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{Workers: 2, WrapSolver: func(name string, sv solve.Solver) solve.Solver {
		if name != solve.DefaultName {
			return sv
		}
		return gatedSolver{Solver: sv, depth: 128 << 10, release: release}
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	for i := 0; i < rows; i++ {
		if i == first {
			close(release)
		}
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("row %d (second depth released: %v): %v", i, i >= first, err)
		}
		var row SweepRow
		if err := json.Unmarshal(line, &row); err != nil || row.Index != i || row.Error != "" {
			t.Fatalf("row %d: %v: %s", i, err, line)
		}
	}
	if rest, err := io.ReadAll(r); err != nil || len(rest) != 0 {
		t.Errorf("after %d rows: %v, %q", rows, err, rest)
	}
}

// TestSweepMatchesOptimize checks a sweep row agrees with the point query
// for the same scenario. A row stores no result-cache entry, so the
// optimize after the sweep misses the result cache, but it designs
// nothing: it re-scores the design the sweep left in the memo.
func TestSweepMatchesOptimize(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	_, data := post(t, ts, "/v1/sweep", `{"soc":"d695","channels":256,"depths":"64K","clock_hz":5e6}`)
	var row SweepRow
	if err := json.Unmarshal(bytes.TrimSpace(data), &row); err != nil {
		t.Fatalf("%v: %s", err, data)
	}
	_, designed := srv.memo.Stats()
	resp, data := post(t, ts, "/v1/optimize", optimizeD695)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("optimize after sweep: X-Cache %q, want miss", got)
	}
	if _, after := srv.memo.Stats(); after != designed {
		t.Errorf("optimize after sweep designed again (%d -> %d memo misses)", designed, after)
	}
	var view snapshotView
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatal(err)
	}
	if want := rowFromSnapshot(0, row.Name, &view); row != want {
		t.Errorf("sweep row %+v disagrees with optimize's %+v", row, want)
	}
}

// TestInlineSOCSharesCacheWithNamed uploads d695's textual form inline
// and checks it addresses the same cache entries as the named benchmark:
// content-addressing, not name-addressing.
func TestInlineSOCSharesCacheWithNamed(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	resp, first := post(t, ts, "/v1/optimize", optimizeD695)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, first)
	}
	text := soc.WriteString(benchdata.Shared("d695"))
	body, err := json.Marshal(map[string]any{
		"soc_text": text, "channels": 256, "depth": "64K", "clock_hz": 5e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, second := post(t, ts, "/v1/optimize", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline status %d: %s", resp.StatusCode, second)
	}
	if resp.Header.Get("X-Cache") != "hit" {
		t.Error("inline request missed the cache despite identical content")
	}
	if !bytes.Equal(first, second) {
		t.Error("inline and named responses differ")
	}
	if st := srv.cache.Stats(); st.Misses != 1 {
		t.Errorf("computes = %d, want 1", st.Misses)
	}
}

// TestUploadDesignCounted checks an upload's design counts in the memo
// counters /metrics reports, though its per-request memo keeps the
// design out of the shared one.
func TestUploadDesignCounted(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	body, err := json.Marshal(map[string]any{
		"soc_text": soc.WriteString(benchdata.Shared("d695")), "channels": 256, "depth": "64K", "clock_hz": 5e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp, data := post(t, ts, "/v1/optimize", string(body)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if requests, designs := srv.memo.Stats(); requests != 1 || designs != 1 {
		t.Errorf("memo stats = (%d requests, %d designs), want (1, 1)", requests, designs)
	}
	if n := srv.memo.Len(); n != 0 {
		t.Errorf("shared memo holds %d designs after an upload, want 0", n)
	}
}

func TestSOCsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, data := get(t, ts, "/v1/socs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		SOCs []SOCInfo `json:"socs"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.SOCs) != len(benchdata.Names()) {
		t.Fatalf("%d socs, want %d", len(out.SOCs), len(benchdata.Names()))
	}
	for i, info := range out.SOCs {
		if info.Name != benchdata.Names()[i] {
			t.Errorf("soc %d = %s, want %s (deterministic order)", i, info.Name, benchdata.Names()[i])
		}
		if want := benchdata.Shared(info.Name).Hash(); info.Hash != want {
			t.Errorf("%s hash %s, want %s", info.Name, info.Hash, want)
		}
		if info.Modules == 0 || info.Testable == 0 || info.TotalTestBits == 0 {
			t.Errorf("%s has zero-valued summary: %+v", info.Name, info)
		}
	}
}

// TestSolversEndpointGolden pins the GET /v1/solvers listing and checks
// it mirrors the registry.
func TestSolversEndpointGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, data := get(t, ts, "/v1/solvers")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	checkGolden(t, "solvers.golden", data)

	var out struct {
		Default string        `json:"default"`
		Solvers []SolverEntry `json:"solvers"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Default != solve.DefaultName {
		t.Errorf("default = %q, want %q", out.Default, solve.DefaultName)
	}
	names := solve.Names()
	if len(out.Solvers) != len(names) {
		t.Fatalf("%d solvers, want %d", len(out.Solvers), len(names))
	}
	for i, entry := range out.Solvers {
		if entry.Name != names[i] {
			t.Errorf("solver %d = %s, want %s (sorted order)", i, entry.Name, names[i])
		}
		if entry.Default != (entry.Name == solve.DefaultName) {
			t.Errorf("solver %s default flag = %v", entry.Name, entry.Default)
		}
	}
}

// TestCompareE2EGolden pins the /v1/compare delta table for d695 across
// every registered backend, and cross-checks the heuristic row against a
// direct core.Optimize run.
func TestCompareE2EGolden(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	resp, data := post(t, ts, "/v1/compare", optimizeD695)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	checkGolden(t, "compare_d695.golden", data)

	var out CompareResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Reference != solve.DefaultName {
		t.Errorf("reference = %q, want the default heuristic", out.Reference)
	}
	if len(out.Rows) != len(solve.Names()) {
		t.Fatalf("%d rows, want %d (every registered backend)", len(out.Rows), len(solve.Names()))
	}
	direct, err := core.Optimize(benchdata.Shared("d695"), core.Config{
		ATE:   ate.ATE{Channels: 256, Depth: 64 << 10, ClockHz: 5e6},
		Probe: ate.DefaultProbeStation(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var exactWires int
	for _, row := range out.Rows {
		if row.Error != "" {
			t.Errorf("row %s failed: %s", row.Solver, row.Error)
			continue
		}
		switch row.Solver {
		case solve.DefaultName:
			if row.Throughput != direct.Best.Throughput || row.Channels != direct.Step1.Channels() {
				t.Errorf("heuristic row %+v disagrees with direct optimize best %+v", row, direct.Best)
			}
			if row.DeltaWires != nil {
				t.Errorf("reference row carries deltas: %+v", row)
			}
		case "exact":
			exactWires = row.Wires
			if row.DeltaWires == nil || row.DeltaSites == nil {
				t.Errorf("non-reference row %s missing deltas", row.Solver)
			}
		}
	}
	// The heuristic can never use fewer wires than the proven optimum.
	if exactWires > 0 && direct.Step1.Wires() < exactWires {
		t.Errorf("heuristic wires %d beat the exact optimum %d", direct.Step1.Wires(), exactWires)
	}
	// Each backend designed exactly once, through the memo, and no row
	// touched the result cache.
	if _, designed := srv.memo.Stats(); designed != int64(len(out.Rows)) {
		t.Errorf("designs = %d, want %d (one per backend)", designed, len(out.Rows))
	}
	if st := srv.cache.Stats(); st != (resultcache.Stats{}) {
		t.Errorf("result cache %+v, want it untouched by compare rows", st)
	}
}

// TestOptimizeSolverNoCacheAlias is the serving-layer regression test for
// the cache-key solver dimension: the same scenario under two backends
// must produce two cache entries (two computes, no hit on the second) and
// responses that differ where the algorithms differ.
func TestOptimizeSolverNoCacheAlias(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	resp, heur := post(t, ts, "/v1/optimize", optimizeD695)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heuristic status %d: %s", resp.StatusCode, heur)
	}
	resp, ex := post(t, ts, "/v1/optimize",
		`{"soc":"d695","channels":256,"depth":"64K","clock_hz":5e6,"solver":"exact"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact status %d: %s", resp.StatusCode, ex)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Error("exact request aliased to the heuristic's cache entry")
	}
	if bytes.Equal(heur, ex) {
		t.Error("exact and heuristic responses are byte-identical; solver dimension lost")
	}
	if st := srv.cache.Stats(); st.Misses != 2 {
		t.Errorf("computes = %d, want 2 (one per solver)", st.Misses)
	}
	// Spelling the default out loud shares the default's entry.
	resp, again := post(t, ts, "/v1/optimize",
		`{"soc":"d695","channels":256,"depth":"64K","clock_hz":5e6,"solver":"heuristic"}`)
	if resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(heur, again) {
		t.Error(`"solver":"heuristic" did not share the default entry`)
	}
	// And the keys themselves are distinct (the unit-level guarantee).
	cfg := core.Config{ATE: ate.ATE{Channels: 256, Depth: 64 << 10, ClockHz: 5e6},
		Probe: ate.DefaultProbeStation()}
	hash := benchdata.Shared("d695").Hash()
	if cachekey.Scenario(hash, "heuristic", cfg) == cachekey.Scenario(hash, "exact", cfg) {
		t.Error("cachekey.Scenario ignores the solver name")
	}
}

// TestSolverErrorStatuses covers the solver-field failure modes of every
// compute endpoint.
func TestSolverErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		path, body string
		status     int
		want       string
	}{
		{"/v1/optimize", `{"soc":"d695","solver":"simplex"}`, http.StatusBadRequest, "valid: baseline, exact, heuristic"},
		{"/v1/sweep", `{"soc":"d695","solver":"simplex","depths":"48K,64K"}`, http.StatusBadRequest, "valid:"},
		{"/v1/compare", `{"soc":"d695","solvers":["heuristic","simplex"]}`, http.StatusBadRequest, "valid:"},
		{"/v1/compare", `{"soc":"d695","solvers":["exact","exact"]}`, http.StatusBadRequest, "duplicate"},
		{"/v1/compare", `{"soc":"d695","solvers":["exact"]}`, http.StatusBadRequest, "at least two"},
		{"/v1/compare", `{"soc":"d695","solver":"exact"}`, http.StatusBadRequest, "solvers"},
		{"/v1/compare", `{"soc":"nope"}`, http.StatusNotFound, "unknown soc"},
	}
	for _, c := range cases {
		resp, data := post(t, ts, c.path, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s %s: status %d, want %d (%s)", c.path, c.body, resp.StatusCode, c.status, data)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, c.want) {
			t.Errorf("%s %s: error %q does not mention %q", c.path, c.body, e.Error, c.want)
		}
	}
}

// TestCompareInfeasibleBackendIsRow checks a backend that cannot handle
// the scenario shows up as an error row, not a failed comparison: the
// exact solver refuses SOCs beyond its module bound while the others
// proceed.
func TestCompareInfeasibleBackendIsRow(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, data := post(t, ts, "/v1/compare", `{"soc":"p93791","channels":512,"depth":"2M","clock_hz":5e6}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out CompareResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	var sawExactError, sawHeuristicRow bool
	for _, row := range out.Rows {
		switch row.Solver {
		case "exact":
			sawExactError = row.Error != "" && strings.Contains(row.Error, "exceed")
		case solve.DefaultName:
			sawHeuristicRow = row.Error == "" && row.Throughput > 0
		}
	}
	if !sawExactError {
		t.Errorf("exact row should report the module bound: %s", data)
	}
	if !sawHeuristicRow {
		t.Errorf("heuristic row should succeed: %s", data)
	}
	if out.Reference != solve.DefaultName {
		t.Errorf("reference = %q, want %q", out.Reference, solve.DefaultName)
	}
}

func TestHealthz(t *testing.T) {
	// /healthz is an alias of /readyz; an in-memory server is ready at
	// once, so both answer 200 "ready".
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, data := get(t, ts, path)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "ready") {
			t.Errorf("%s = %d %q", path, resp.StatusCode, data)
		}
	}
}

func TestErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		path, body string
		status     int
	}{
		{"/v1/optimize", `{`, http.StatusBadRequest},
		{"/v1/optimize", `{"bogus_field":1}`, http.StatusBadRequest},
		{"/v1/optimize", `{}`, http.StatusBadRequest},
		{"/v1/optimize", `{"soc":"nope"}`, http.StatusNotFound},
		{"/v1/optimize", `{"soc":"d695","soc_text":"SocName x"}`, http.StatusBadRequest},
		{"/v1/optimize", `{"soc_text":"SocName broken\nModule"}`, http.StatusUnprocessableEntity},
		// Infeasible: d695 cannot fit one site on 4 channels.
		{"/v1/optimize", `{"soc":"d695","channels":4,"depth":"64K"}`, http.StatusUnprocessableEntity},
		// Invalid tester.
		{"/v1/optimize", `{"soc":"d695","channels":1}`, http.StatusUnprocessableEntity},
		{"/v1/compare", `{"soc":"d695","channels":1}`, http.StatusUnprocessableEntity},
		{"/v1/sweep", `{"soc":"d695","depths":"64K:48K:16K"}`, http.StatusBadRequest},
		{"/v1/sweep", `{"soc":"d695","channels_list":[256,512],"depths":"1K:4096K:1K"}`, http.StatusBadRequest},
		// A tiny range string must not expand to petabytes of entries
		// during JSON decode (bounded by cli.MaxSizeListEntries).
		{"/v1/sweep", `{"soc":"d695","depths":"0:9007199254740992:1"}`, http.StatusBadRequest},
		// Overflow-crafted sizes are rejected at parse, not wrapped.
		{"/v1/optimize", `{"soc":"d695","depth":"1e30"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, data := post(t, ts, c.path, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s %s: status %d, want %d (%s)", c.path, c.body, resp.StatusCode, c.status, data)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s %s: error body not JSON: %s", c.path, c.body, data)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, _ := get(t, ts, "/v1/optimize")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/optimize = %d, want 405", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	post(t, ts, "/v1/optimize", optimizeD695)
	post(t, ts, "/v1/optimize", optimizeD695)
	resp, data := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	text := string(data)
	for _, want := range []string{
		`multisite_requests_total{endpoint="optimize"} 2`,
		"multisite_cache_computes_total 1",
		"multisite_cache_hits_total 1",
		"multisite_memo_designs_total 1",
		"multisite_compute_inflight 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}
