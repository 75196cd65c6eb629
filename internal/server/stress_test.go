package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"multisite/internal/diskcache"
	"multisite/internal/resultcache"
)

// TestConcurrentIdenticalOptimizeComputesOnce is the issue's acceptance
// check: 32 concurrent identical /v1/optimize requests must trigger
// exactly one underlying core.Optimize call (verified through the cache
// counters /metrics exposes) and return byte-identical responses.
func TestConcurrentIdenticalOptimizeComputesOnce(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	const clients = 32
	body := `{"soc":"pnx8550","channels":512,"depth":"7M","clock_hz":5e6,"broadcast":true}`

	_, responses := herd(t, ts, "/v1/optimize", body, clients)
	for i := 1; i < clients; i++ {
		if !bytes.Equal(responses[i], responses[0]) {
			t.Fatalf("client %d got different bytes", i)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(metrics)
	for _, want := range []string{
		"multisite_cache_computes_total 1",
		"multisite_memo_designs_total 1",
		fmt.Sprintf(`multisite_requests_total{endpoint="optimize"} %d`, clients),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// herd sends n identical POSTs at once and returns every response's
// header and body (goroutine-safe: no Fatal).
func herd(t *testing.T, ts *httptest.Server, path, body string, n int) ([]http.Header, [][]byte) {
	t.Helper()
	headers, bodies := make([]http.Header, n), make([][]byte, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d, %v: %s", i, resp.StatusCode, err, data)
				return
			}
			headers[i], bodies[i] = resp.Header, data
		}()
	}
	close(start)
	wg.Wait()
	return headers, bodies
}

// sweep96 expands to exactly 96 scenarios: 6 depths x 2 broadcast x
// 4 contact yields x 2 retest variants.
const sweep96 = `{"soc":"d695","channels":256,"clock_hz":5e6,` +
	`"depths":"48K:128K:16K","broadcast_both":true,` +
	`"contact_yields":[1,0.999,0.99,0.9],"retest_both":true}`

// runSweep posts a sweep and returns the NDJSON bytes, or nil after
// reporting the failure (goroutine-safe: no Fatal).
func runSweep(t *testing.T, ts *httptest.Server, body string) []byte {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return nil
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("sweep status %d, %v: %s", resp.StatusCode, err, data)
		return nil
	}
	return data
}

// TestSweep96Deterministic is the second acceptance check: a 96-scenario
// sweep streams deterministic, byte-stable NDJSON — across repeats, across
// worker counts, and regardless of cache warmth.
func TestSweep96Deterministic(t *testing.T) {
	_, cold := newTestServer(t, Options{Workers: 7})
	first := runSweep(t, cold, sweep96)
	if first == nil {
		t.FailNow()
	}
	if n := bytes.Count(first, []byte("\n")); n != 96 {
		t.Fatalf("sweep produced %d rows, want 96", n)
	}
	if again := runSweep(t, cold, sweep96); !bytes.Equal(first, again) {
		t.Error("warm repeat differs from cold run")
	}
	for _, workers := range []int{1, 3} {
		_, ts := newTestServer(t, Options{Workers: workers})
		if got := runSweep(t, ts, sweep96); !bytes.Equal(first, got) {
			t.Errorf("workers=%d sweep differs", workers)
		}
	}
}

// TestConcurrentMixedSweeps hammers the sweep path from many clients —
// half identical, half distinct — and checks every response is byte-wise
// reproducible, the memo designed each distinct depth exactly once, and
// no row touched the result cache.
func TestConcurrentMixedSweeps(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	const clients = 32
	bodyFor := func(i int) string {
		// Two request shapes; within each, every client sends the same
		// body, so distinct designs = one per depth, the two shapes
		// sharing the 64K depth (3 distinct design keys).
		if i%2 == 0 {
			return `{"soc":"d695","channels":256,"clock_hz":5e6,"depths":"48K,64K","yields":[1,0.9]}`
		}
		return `{"soc":"d695","channels":256,"clock_hz":5e6,"depths":"64K,128K","yields":[1,0.8]}`
	}
	responses := make([][]byte, clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			responses[i] = runSweep(t, ts, bodyFor(i))
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 2; i < clients; i++ {
		if !bytes.Equal(responses[i], responses[i%2]) {
			t.Errorf("client %d diverged from its request shape", i)
		}
	}
	if bytes.Equal(responses[0], responses[1]) {
		t.Error("distinct sweeps returned identical bytes")
	}
	if _, designed := srv.memo.Stats(); designed != 3 {
		t.Errorf("designs = %d, want 3 (one per distinct depth)", designed)
	}
	if st := srv.cache.Stats(); st != (resultcache.Stats{}) {
		t.Errorf("result cache %+v, want it untouched by sweep rows", st)
	}
}

// TestConcurrentIdenticalSweepsSpillOnce: on a disk-backed server a herd
// of identical sweeps reads, designs, renders and spills each scenario
// once, and a repeat is answered from the row views without touching the
// disk. The rows equal a disk-less server's byte for byte.
func TestConcurrentIdenticalSweepsSpillOnce(t *testing.T) {
	const (
		clients   = 16
		scenarios = 4 // 2 depths × 2 yields
		body      = `{"soc":"d695","channels":256,"clock_hz":5e6,"depths":"48K,64K","yields":[1,0.9]}`
	)
	_, ref := newTestServer(t, Options{})
	want := runSweep(t, ref, body)
	srv, ts := newDurableServer(t, t.TempDir(), Options{})
	responses := make([][]byte, clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			responses[i] = runSweep(t, ts, body)
		}()
	}
	close(start)
	wg.Wait()
	for i, got := range responses {
		if !bytes.Equal(got, want) {
			t.Errorf("client %d's rows differ from a disk-less server's", i)
		}
	}
	spilled := diskcache.Stats{Misses: scenarios, Puts: scenarios, Entries: scenarios}
	if st := srv.disk.Stats(); st != spilled {
		t.Errorf("disk tier after the herd %+v, want %+v: one read and one put per scenario", st, spilled)
	}
	if _, designed := srv.memo.Stats(); designed != 2 {
		t.Errorf("designs = %d, want 2 (one per depth)", designed)
	}
	if got := runSweep(t, ts, body); !bytes.Equal(got, want) {
		t.Error("repeated sweep differs")
	}
	if st := srv.disk.Stats(); st != spilled {
		t.Errorf("disk tier after a repeat %+v, want %+v: a repeated row reads no disk", st, spilled)
	}
	if st := srv.rows.Stats(); st.Misses != scenarios || st.Entries != scenarios {
		t.Errorf("row views %+v, want %d computes and entries", st, scenarios)
	}
	if st := srv.cache.Stats(); st != (resultcache.Stats{}) {
		t.Errorf("result cache %+v, want it untouched by sweep rows", st)
	}
}
