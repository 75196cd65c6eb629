package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"multisite/internal/benchdata"
	"multisite/internal/core"
	"multisite/internal/faultinject"
	"multisite/internal/resilience"
	"multisite/internal/soc"
	"multisite/internal/solve"
	"multisite/internal/tam"
)

// adversarialBody renders an /v1/optimize body for the crafted
// adversarial chip (exact ~0.37s on a 2-core Xeon, heuristic ~0.2ms) at
// its tuned operating point, with extra fields spliced in. A test that
// needs a deadline or a cancelled client to cut the exact search runs a
// chaosServer whose exact backend hangs ("hang,repeat") until its
// context is done: how long the search runs depends on the host, a hang
// does not.
func adversarialBody(t *testing.T, extra string) string {
	t.Helper()
	text, err := json.Marshal(soc.WriteString(benchdata.Adversarial()))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"soc_text":%s,"channels":256,"depth":16000`, text)
	if extra != "" {
		body += "," + extra
	}
	return body + "}"
}

// lenientBreaker keeps the circuit breakers out of tests that exercise
// the deadline path repeatedly on purpose.
func lenientBreaker() resilience.Options {
	return resilience.Options{ConsecutiveDeadlines: 1000, FailureRatio: 2}
}

// TestPortfolioDegradedE2E: a deadline the exact backend cannot meet on
// the adversarial chip is a 504 when exact is requested directly — and a
// valid 200 marked degraded when the portfolio is, carrying a design that
// parses and validates.
func TestPortfolioDegradedE2E(t *testing.T) {
	_, ts := chaosServer(t, "hang,repeat", Options{RequestTimeout: 300 * time.Millisecond, Breaker: lenientBreaker()})

	resp, body := post(t, ts, "/v1/optimize", adversarialBody(t, `"solver":"exact"`))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("exact under 300ms: status %d, body %s", resp.StatusCode, body)
	}

	resp, body = post(t, ts, "/v1/optimize", adversarialBody(t, `"solver":"portfolio"`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("portfolio under 300ms: status %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Degraded") != "true" {
		t.Error("portfolio deadline response missing X-Degraded: true")
	}
	snap := new(core.Snapshot)
	if err := json.Unmarshal(body, snap); err != nil {
		t.Fatalf("response not a snapshot: %v", err)
	}
	if !snap.Degraded || snap.Optimal {
		t.Errorf("degraded=%v optimal=%v, want true/false", snap.Degraded, snap.Optimal)
	}
	arch, err := tam.ParseArchitectureString(snap.Step1Arch, benchdata.Adversarial())
	if err != nil {
		t.Fatalf("degraded Step1 architecture does not parse: %v", err)
	}
	if err := arch.Validate(); err != nil {
		t.Errorf("degraded Step1 architecture invalid: %v", err)
	}
	if snap.Best.Sites < 1 {
		t.Errorf("degraded snapshot has no operating point: %+v", snap.Best)
	}
}

// TestDegradedNeverCached: repeating the deadline-cut portfolio request
// recomputes every time — degraded bytes must not serve later requests —
// while a completed request on the same server still caches normally.
func TestDegradedNeverCached(t *testing.T) {
	s, ts := chaosServer(t, "hang,repeat", Options{RequestTimeout: 300 * time.Millisecond, Breaker: lenientBreaker()})
	for i := 0; i < 2; i++ {
		resp, body := post(t, ts, "/v1/optimize", adversarialBody(t, `"solver":"portfolio"`))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("degraded request %d served X-Cache %q, want miss every time", i, got)
		}
		if resp.Header.Get("X-Degraded") != "true" {
			t.Errorf("request %d not degraded", i)
		}
	}
	st := s.cache.Stats()
	if st.Uncacheable != 2 {
		t.Errorf("cache stats %+v: want Uncacheable=2 (one per degraded compute)", st)
	}
	if st.Hits != 0 || st.Entries != 0 {
		t.Errorf("degraded bytes were stored: %+v", st)
	}

	// Sanity: a fast, completed request caches as ever.
	for i, want := range []string{"miss", "hit"} {
		resp, _ := post(t, ts, "/v1/optimize", `{"soc":"d695"}`)
		if got := resp.Header.Get("X-Cache"); got != want {
			t.Errorf("d695 request %d: X-Cache %q, want %q", i, got, want)
		}
	}
}

// TestTimeoutMSField: the per-request timeout_ms field bounds compute on
// a server with no global timeout — 504 for exact, degraded 200 for the
// portfolio — and a request naming a generous timeout completes.
func TestTimeoutMSField(t *testing.T) {
	_, ts := chaosServer(t, "hang,repeat", Options{Breaker: lenientBreaker()})

	resp, body := post(t, ts, "/v1/optimize", adversarialBody(t, `"solver":"exact","timeout_ms":300`))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("exact timeout_ms=300: status %d, body %s", resp.StatusCode, body)
	}
	resp, _ = post(t, ts, "/v1/optimize", adversarialBody(t, `"solver":"portfolio","timeout_ms":300`))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Degraded") != "true" {
		t.Fatalf("portfolio timeout_ms=300: status %d degraded=%q, want 200/true",
			resp.StatusCode, resp.Header.Get("X-Degraded"))
	}
	resp, body = post(t, ts, "/v1/optimize", `{"soc":"d695","timeout_ms":30000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generous timeout_ms: status %d, body %s", resp.StatusCode, body)
	}
}

// TestAnytimeNDJSON drives the streaming face: improving events with
// monotone wire counts, then exactly one final event carrying the full
// snapshot and the degraded provenance.
func TestAnytimeNDJSON(t *testing.T) {
	_, ts := chaosServer(t, "hang,repeat", Options{Breaker: lenientBreaker()})
	resp, body := post(t, ts, "/v1/optimize", adversarialBody(t, `"solver":"portfolio","anytime":true,"timeout_ms":200`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want NDJSON", ct)
	}
	if resp.Header.Get("X-Anytime") != "true" {
		t.Error("missing X-Anytime header")
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 2 {
		t.Fatalf("expected multiple anytime events, got %d lines: %s", len(lines), body)
	}
	lastWires := int(^uint(0) >> 1)
	for i, line := range lines {
		var ev AnytimeEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not an AnytimeEvent: %v: %s", i, err, line)
		}
		if ev.Seq != i {
			t.Errorf("line %d has seq %d", i, ev.Seq)
		}
		if ev.Final != (i == len(lines)-1) {
			t.Fatalf("final flag on line %d of %d", i, len(lines))
		}
		if ev.Error != "" {
			t.Fatalf("line %d carries error %q", i, ev.Error)
		}
		if ev.Wires > lastWires {
			t.Errorf("line %d regressed to %d wires after %d", i, ev.Wires, lastWires)
		}
		lastWires = ev.Wires
		if i == len(lines)-1 {
			if ev.Snapshot == nil {
				t.Fatal("final event has no snapshot")
			}
			if !ev.Degraded {
				t.Error("200ms-cut adversarial run should be degraded")
			}
			if ev.Snapshot.Degraded != ev.Degraded || ev.Snapshot.Optimal != ev.Optimal {
				t.Error("final event flags disagree with its snapshot")
			}
		} else if ev.Snapshot != nil {
			t.Errorf("improving event %d carries a snapshot", i)
		}
	}
}

// TestAnytimeCompletedOptimal: with no deadline the anytime stream ends
// optimal and un-degraded, and nothing of it lands in the result cache.
func TestAnytimeCompletedOptimal(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	resp, body := post(t, ts, "/v1/optimize", `{"soc":"d695","solver":"portfolio","anytime":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var last AnytimeEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if !last.Final || !last.Optimal || last.Degraded {
		t.Errorf("final event = %+v, want final optimal non-degraded", last)
	}
	if st := s.cache.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Errorf("anytime stream touched the result cache: %+v", st)
	}
}

// TestClientCancelDistinguished: a client abandoning its request
// mid-compute is logged and counted as a client cancel, never as a
// server timeout.
func TestClientCancelDistinguished(t *testing.T) {
	logged := make(chan string, 16)
	s, ts := chaosServer(t, "hang,repeat", Options{
		Breaker: lenientBreaker(),
		Logf: func(format string, args ...any) {
			select {
			case logged <- fmt.Sprintf(format, args...):
			default:
			}
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/optimize",
		strings.NewReader(adversarialBody(t, `"solver":"exact"`)))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("cancelled request delivered a response")
	}
	// The handler notices after the compute unwinds; poll the counter.
	deadline := time.Now().Add(5 * time.Second)
	for s.clientCancels.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.clientCancels.Load(); got != 1 {
		t.Fatalf("clientCancels = %d, want 1", got)
	}
	select {
	case line := <-logged:
		if !strings.Contains(line, "client closed request") {
			t.Errorf("log line %q does not name the client cancellation", line)
		}
	case <-time.After(2 * time.Second):
		t.Error("client cancellation not logged")
	}
	// And the metrics endpoint exposes it.
	_, body := get(t, ts, "/metrics")
	if !strings.Contains(string(body), "multisite_client_cancels_total 1") {
		t.Error("/metrics missing multisite_client_cancels_total 1")
	}
}

// chaosServer builds a server whose exact backend runs an injected
// fault plan.
func chaosServer(t *testing.T, plan string, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	p, err := faultinject.ParsePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	opts.WrapSolver = func(name string, sv solve.Solver) solve.Solver {
		if name == "exact" {
			return faultinject.Wrap(sv, p)
		}
		return sv
	}
	return newTestServer(t, opts)
}

// TestChaosPanicBecomesErrorRowsNeverHoles: a panicking exact backend
// must surface as error rows — in sweeps and compares — with zero 5xx
// and zero missing lines.
func TestChaosPanicBecomesErrorRowsNeverHoles(t *testing.T) {
	_, ts := chaosServer(t, "panic,repeat", Options{Breaker: lenientBreaker()})

	resp, body := post(t, ts, "/v1/sweep", `{"soc":"d695","solver":"exact","depths":["24K","32K","48K"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 3 {
		t.Fatalf("sweep returned %d rows, want 3 (no holes): %s", len(lines), body)
	}
	for i, line := range lines {
		var row SweepRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if row.Index != i {
			t.Errorf("row %d has index %d", i, row.Index)
		}
		if row.Error == "" {
			t.Errorf("row %d: panicking backend produced a non-error row", i)
		}
	}

	resp, body = post(t, ts, "/v1/compare", `{"soc":"d695","solvers":["heuristic","exact"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare status %d: %s", resp.StatusCode, body)
	}
	var cresp CompareResponse
	if err := json.Unmarshal(body, &cresp); err != nil {
		t.Fatal(err)
	}
	for _, row := range cresp.Rows {
		switch row.Solver {
		case "exact":
			if row.Error == "" {
				t.Error("exact compare row should carry the injected failure")
			}
		case "heuristic":
			if row.Error != "" {
				t.Errorf("heuristic row failed: %s", row.Error)
			}
		}
	}
}

// TestChaosHangNeverCached: a request cut by the server deadline while
// the backend hangs must not leave anything in either cache tier — the
// identical retry computes afresh (and succeeds once the plan passes).
func TestChaosHangNeverCached(t *testing.T) {
	s, ts := chaosServer(t, "hang,hang", Options{
		RequestTimeout: 150 * time.Millisecond, Breaker: lenientBreaker(),
	})
	for i := 0; i < 2; i++ {
		resp, _ := post(t, ts, "/v1/optimize", `{"soc":"d695","solver":"exact"}`)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("hang %d: status %d, want 504", i, resp.StatusCode)
		}
	}
	if st := s.cache.Stats(); st.Entries != 0 || st.Misses != 2 {
		t.Fatalf("cancelled computes cached: %+v (want 2 misses, 0 entries)", st)
	}
	// Past the two hang steps the plan passes: the same request now
	// completes — which it could not if the 504 had been cached.
	resp, body := post(t, ts, "/v1/optimize", `{"soc":"d695","solver":"exact"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos retry: status %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Error("post-chaos retry served from cache — a hang's bytes were stored")
	}
}

// TestChaosBreakerTripsAndRecovers walks the full breaker lifecycle over
// HTTP: deadline hangs trip it (504s), the open breaker rejects fast
// (503 + ErrTransient, uncached), and after the cooldown a probe closes
// it again (200).
func TestChaosBreakerTripsAndRecovers(t *testing.T) {
	// The tight deadline rides on the tripping requests (timeout_ms), not
	// the server-wide timeout: the recovery probe below runs the real
	// exact solver, which needs more than 150ms on a loaded test host.
	_, ts := chaosServer(t, "hang,hang,hang", Options{
		RequestTimeout: 10 * time.Second,
		Breaker: resilience.Options{
			ConsecutiveDeadlines: 3,
			Cooldown:             200 * time.Millisecond,
			FailureRatio:         2, // ratio path off; this test is about deadlines
		},
	})
	// Distinct depths: every request is a fresh cache key.
	for i := 0; i < 3; i++ {
		resp, _ := post(t, ts, "/v1/optimize",
			fmt.Sprintf(`{"soc":"d695","solver":"exact","timeout_ms":150,"depth":%d}`, 24576+i))
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("hang %d: status %d, want 504", i, resp.StatusCode)
		}
	}
	// Tripped: rejected without burning the 150ms deadline.
	start := time.Now()
	resp, body := post(t, ts, "/v1/optimize", `{"soc":"d695","solver":"exact","depth":24580}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status %d, body %s, want 503", resp.StatusCode, body)
	}
	if e := time.Since(start); e > 100*time.Millisecond {
		t.Errorf("open-breaker rejection took %v, want immediate", e)
	}
	if !strings.Contains(string(body), "circuit") {
		t.Errorf("503 body %s does not name the breaker", body)
	}
	_, metrics := get(t, ts, "/metrics")
	if !strings.Contains(string(metrics), `multisite_breaker_state{backend="exact"} 1`) {
		t.Error("/metrics does not show the exact breaker open")
	}
	if !strings.Contains(string(metrics), `multisite_breaker_trips_total{backend="exact"} 1`) {
		t.Error("/metrics does not count the trip")
	}

	time.Sleep(250 * time.Millisecond) // cooldown
	// The probe passes (the finite plan is exhausted) and closes the
	// breaker.
	resp, body = post(t, ts, "/v1/optimize", `{"soc":"d695","solver":"exact","depth":24581}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe after cooldown: status %d, body %s", resp.StatusCode, body)
	}
	_, metrics = get(t, ts, "/metrics")
	if !strings.Contains(string(metrics), `multisite_breaker_state{backend="exact"} 0`) {
		t.Error("/metrics does not show the breaker closed after recovery")
	}
}

// TestChaosPortfolioAbsorbsExactHang: with the exact backend hanging
// forever, the portfolio still answers 200 within its timeout — degraded,
// valid, uncached — which is the serving-layer contract the CI chaos
// replay asserts at load.
func TestChaosPortfolioAbsorbsExactHang(t *testing.T) {
	s, ts := chaosServer(t, "hang,repeat", Options{Breaker: lenientBreaker()})
	for i := 0; i < 2; i++ {
		resp, body := post(t, ts, "/v1/optimize",
			fmt.Sprintf(`{"soc":"d695","solver":"portfolio","timeout_ms":400,"depth":%d}`, 24576+i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, resp.StatusCode, body)
		}
		if resp.Header.Get("X-Degraded") != "true" {
			t.Errorf("request %d: portfolio over a hung exact leg must be degraded", i)
		}
		snap := new(core.Snapshot)
		if err := json.Unmarshal(body, snap); err != nil {
			t.Fatal(err)
		}
		arch, err := tam.ParseArchitectureString(snap.Step1Arch, benchdata.Shared("d695"))
		if err != nil {
			t.Fatalf("request %d: degraded architecture does not parse: %v", i, err)
		}
		if err := arch.Validate(); err != nil {
			t.Errorf("request %d: degraded architecture invalid: %v", i, err)
		}
	}
	if st := s.cache.Stats(); st.Entries != 0 {
		t.Errorf("degraded portfolio responses were cached: %+v", st)
	}
}
