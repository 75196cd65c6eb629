package gateway

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"multisite/internal/resilience"
	"multisite/internal/server"
)

// fakePeer answers like a shard, naming itself in every body: optimize
// with an unusual status so a relay that rewrites statuses shows, and
// the job list with one job stamped with the shard's label.
func fakePeer(label string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprintf(w, "{\"peer\":%q,\"routed\":%q}\n", label, r.Header.Get(server.HeaderFleetRouted))
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "{\"jobs\":[{\"id\":\"%s-j0000000001\"}]}\n", label)
	})
	return mux
}

// testFleet is a gateway over three fake peers, each reachable by its
// shard label.
type testFleet struct {
	g       *Gateway
	servers map[string]*httptest.Server // by shard label
	logs    atomic.Int64                // lines the gateway logged
}

// newTestFleet builds the gateway with the given breaker options over
// three peers, each serving peer(label).
func newTestFleet(t *testing.T, breaker resilience.Options, peer func(label string) http.Handler) *testFleet {
	t.Helper()
	var addrs []string
	var unstarted []*httptest.Server
	for i := 0; i < 3; i++ {
		ts := httptest.NewUnstartedServer(nil)
		unstarted = append(unstarted, ts)
		addrs = append(addrs, ts.Listener.Addr().String())
	}
	f := &testFleet{servers: map[string]*httptest.Server{}}
	g, err := New(Options{Peers: addrs, Breaker: breaker, Logf: func(string, ...any) { f.logs.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	f.g = g
	for i, ts := range unstarted {
		label := g.peers[addrs[i]].label
		ts.Config.Handler = peer(label)
		ts.Start()
		t.Cleanup(ts.Close)
		f.servers[label] = ts
	}
	return f
}

// ownerLabels returns the shard labels of the ring owner of a request
// body's routing key and of its successor.
func (f *testFleet) ownerLabels(t *testing.T, endpoint, body string) (owner, successor string) {
	t.Helper()
	key, _, err := server.FleetRouteKey(endpoint, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	owners := f.g.ring.Owners(key, 2)
	return f.g.peers[owners[0]].label, f.g.peers[owners[1]].label
}

// serve runs one request through the gateway's handler.
func (f *testFleet) serve(method, path, body string) (int, string) {
	rec := httptest.NewRecorder()
	f.g.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// sample reads the peer's sample of one per-peer family, such as
// multisite_fleet_peer_healthy, from the gateway's /metrics.
func (f *testFleet) sample(t *testing.T, family, label string) string {
	t.Helper()
	_, metrics := f.serve("GET", "/metrics", "")
	prefix := fmt.Sprintf("%s{peer=%q,shard=%q} ", family, f.g.byLabel[label].addr, label)
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			return v
		}
	}
	t.Fatalf("no %q sample in /metrics:\n%s", prefix, metrics)
	return ""
}

// manualClock is a breaker clock the test advances by hand.
type manualClock struct{ now atomic.Int64 }

func (c *manualClock) Now() time.Time          { return time.Unix(0, c.now.Load()) }
func (c *manualClock) Advance(d time.Duration) { c.now.Add(int64(d)) }

func TestGatewayDeadPeer(t *testing.T) {
	const optimize = `{"soc":"d695","channels":256,"depth":"64K"}`
	cases := []struct {
		name         string
		method, path string
		body         string
		// down names the shard to kill and returns what the gateway
		// must answer with it gone.
		down func(t *testing.T, f *testFleet) (label string, status int, header map[string]string, body string)
	}{{
		name: "optimize retries the ring successor", method: "POST", path: "/v1/optimize", body: optimize,
		down: func(t *testing.T, f *testFleet) (string, int, map[string]string, string) {
			owner, successor := f.ownerLabels(t, "/v1/optimize", optimize)
			return owner, http.StatusTeapot, nil, fmt.Sprintf("{\"peer\":%q,\"routed\":\"1\"}\n", successor)
		},
	}, {
		name: "job read on a dead shard is 503", method: "GET", path: "/v1/jobs/s1-j0000000001",
		down: func(_ *testing.T, f *testFleet) (string, int, map[string]string, string) {
			return "s1", http.StatusServiceUnavailable, map[string]string{"Retry-After": "5"},
				fmt.Sprintf("{\"error\":\"shard s1 (%s) is unreachable; its jobs are durable and resume when it returns\"}\n",
					f.servers["s1"].Listener.Addr())
		},
	}, {
		name: "job list merges the live shards", method: "GET", path: "/v1/jobs",
		down: func(*testing.T, *testFleet) (string, int, map[string]string, string) {
			return "s1", http.StatusOK, map[string]string{"X-Fleet-Partial": "s1"},
				`{"jobs":[{"id":"s0-j0000000001"},{"id":"s2-j0000000001"}]}` + "\n"
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newTestFleet(t, resilience.Options{}, fakePeer)
			label, wantStatus, wantHeader, wantBody := tc.down(t, f)
			f.servers[label].Close()

			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			f.g.Handler().ServeHTTP(rec, req)
			body, _ := io.ReadAll(rec.Result().Body)
			if rec.Code != wantStatus {
				t.Errorf("status %d, want %d (body %s)", rec.Code, wantStatus, body)
			}
			for k, v := range wantHeader {
				if got := rec.Header().Get(k); got != v {
					t.Errorf("%s = %q, want %q", k, got, v)
				}
			}
			if string(body) != wantBody {
				t.Errorf("body %q, want %q", body, wantBody)
			}
		})
	}
}

// TestGatewayBreakerOpensAndCloses walks one peer's breaker through its
// states. While the ring owner drops every connection, its keys fail
// over to the successor until the breaker opens, each failure logged and
// counted as a retry away from the owner; once open, the successor
// serves them without the owner being dialed, logged or counted; after
// the cooldown, with the owner back, one half-open probe reaches it and
// closes the breaker.
func TestGatewayBreakerOpensAndCloses(t *testing.T) {
	const optimize = `{"soc":"d695","channels":256,"depth":"64K"}`
	type peer struct {
		down atomic.Bool
		hits atomic.Int64
	}
	peers := map[string]*peer{}
	clock := &manualClock{}
	const cooldown = time.Second
	// A two-call window trips on the second failure in a row.
	opts := resilience.Options{Window: 2, Cooldown: cooldown, Clock: clock.Now}
	f := newTestFleet(t, opts, func(label string) http.Handler {
		p := &peer{}
		peers[label] = p
		h := fakePeer(label)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			p.hits.Add(1)
			if p.down.Load() {
				// A dead shard: the connection drops without a response,
				// which the gateway sees as a transport error.
				if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
					conn.Close()
				}
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	owner, successor := f.ownerLabels(t, "/v1/optimize", optimize)
	fromSuccessor := fmt.Sprintf("{\"peer\":%q,\"routed\":\"1\"}\n", successor)
	fromOwner := fmt.Sprintf("{\"peer\":%q,\"routed\":\"1\"}\n", owner)
	expect := func(step, want string) {
		t.Helper()
		if code, body := f.serve("POST", "/v1/optimize", optimize); code != http.StatusTeapot || body != want {
			t.Fatalf("%s: status %d body %q, want %d %q", step, code, body, http.StatusTeapot, want)
		}
	}
	// counts checks the owner's retried and routed totals, the
	// successor's routed total and the lines the gateway logged.
	counts := func(step string, ownerRetried, ownerRouted, successorRouted, logs int) {
		t.Helper()
		for _, c := range []struct {
			family, label string
			want          int
		}{
			{"multisite_fleet_retried_total", owner, ownerRetried},
			{"multisite_fleet_routed_total", owner, ownerRouted},
			{"multisite_fleet_routed_total", successor, successorRouted},
		} {
			if got := f.sample(t, c.family, c.label); got != strconv.Itoa(c.want) {
				t.Errorf("%s: %s of %s = %s, want %d", step, c.family, c.label, got, c.want)
			}
		}
		if got := f.logs.Load(); got != int64(logs) {
			t.Errorf("%s: gateway logged %d lines, want %d", step, got, logs)
		}
	}

	if got := f.sample(t, "multisite_fleet_peer_healthy", owner); got != "1" {
		t.Fatalf("owner healthy before any failure = %s, want 1", got)
	}
	counts("before any failure", 0, 0, 0, 0)
	peers[owner].down.Store(true)
	for i := 1; i <= 2; i++ {
		expect("failover while closed", fromSuccessor)
		counts("failover while closed", i, 0, i, i)
	}
	if got := peers[owner].hits.Load(); got != 2 {
		t.Fatalf("owner dialed %d times before its breaker opened, want 2", got)
	}
	if got := f.sample(t, "multisite_fleet_peer_healthy", owner); got != "0" {
		t.Fatalf("owner healthy after two transport failures = %s, want 0 (open)", got)
	}

	for i := 1; i <= 3; i++ {
		expect("successor while open", fromSuccessor)
		counts("successor while open", 2, 0, 2+i, 2)
	}
	if got := peers[owner].hits.Load(); got != 2 {
		t.Fatalf("gateway dialed the owner %d times past its open breaker", got-2)
	}

	clock.Advance(cooldown)
	peers[owner].down.Store(false)
	expect("half-open probe", fromOwner)
	if got := peers[owner].hits.Load(); got != 3 {
		t.Fatalf("owner saw %d requests after the cooldown, want exactly one probe", got-2)
	}
	if got := f.sample(t, "multisite_fleet_peer_healthy", owner); got != "1" {
		t.Fatalf("owner healthy after a successful probe = %s, want 1 (closed)", got)
	}
	counts("half-open probe", 2, 1, 5, 2)
	expect("closed again", fromOwner)
}

// TestGatewayStreamsNDJSON: a sweep's rows reach the client as the peer
// flushes them. The peer holds the stream open after its first row until
// the client has read that row through a real gateway listener, so a
// gateway that buffers the body never delivers it.
func TestGatewayStreamsNDJSON(t *testing.T) {
	const sweep = `{"soc":"d695","depths":"48K,64K"}`
	release := make(chan struct{})
	f := newTestFleet(t, resilience.Options{}, func(label string) http.Handler {
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprintf(w, "{\"row\":0,\"peer\":%q}\n", label)
			w.(http.Flusher).Flush()
			select {
			case <-release:
			case <-r.Context().Done():
				return
			}
			fmt.Fprintf(w, "{\"row\":1,\"peer\":%q}\n", label)
		})
		return mux
	})
	owner, _ := f.ownerLabels(t, "/v1/sweep", sweep)
	gw := httptest.NewServer(f.g.Handler())
	defer gw.Close()

	type firstRow struct {
		resp *http.Response
		body *bufio.Reader
		line string
		err  error
	}
	got := make(chan firstRow, 1)
	go func() {
		resp, err := http.Post(gw.URL+"/v1/sweep", "application/json", strings.NewReader(sweep))
		if err != nil {
			got <- firstRow{err: err}
			return
		}
		body := bufio.NewReader(resp.Body)
		line, err := body.ReadString('\n')
		got <- firstRow{resp, body, line, err}
	}()
	var first firstRow
	select {
	case first = <-got:
		close(release)
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("no row reached the client while the peer held its stream open: the gateway buffers the body")
	}
	if first.err != nil {
		t.Fatal(first.err)
	}
	defer first.resp.Body.Close()
	if want := fmt.Sprintf("{\"row\":0,\"peer\":%q}\n", owner); first.line != want {
		t.Fatalf("first row %q, want %q", first.line, want)
	}
	rest, err := io.ReadAll(first.body)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("{\"row\":1,\"peer\":%q}\n", owner); string(rest) != want {
		t.Errorf("rest of stream %q, want %q", rest, want)
	}
	if ct := first.resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
}
