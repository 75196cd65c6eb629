package gateway

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
	g, err := New(Options{Peers: addrs, Breaker: breaker})
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{g: g, servers: map[string]*httptest.Server{}}
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

// healthy reads the peer's multisite_fleet_peer_healthy sample from the
// gateway's /metrics.
func (f *testFleet) healthy(t *testing.T, label string) string {
	t.Helper()
	_, metrics := f.serve("GET", "/metrics", "")
	prefix := fmt.Sprintf("multisite_fleet_peer_healthy{peer=%q,shard=%q} ", f.g.byLabel[label].addr, label)
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
// over to the successor until the breaker opens; once open, the
// successor serves them without the owner being dialed; after the
// cooldown, with the owner back, one half-open probe reaches it and
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

	if got := f.healthy(t, owner); got != "1" {
		t.Fatalf("owner healthy before any failure = %s, want 1", got)
	}
	peers[owner].down.Store(true)
	for i := 0; i < 2; i++ {
		expect("failover while closed", fromSuccessor)
	}
	if got := peers[owner].hits.Load(); got != 2 {
		t.Fatalf("owner dialed %d times before its breaker opened, want 2", got)
	}
	if got := f.healthy(t, owner); got != "0" {
		t.Fatalf("owner healthy after two transport failures = %s, want 0 (open)", got)
	}

	for i := 0; i < 3; i++ {
		expect("successor while open", fromSuccessor)
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
	if got := f.healthy(t, owner); got != "1" {
		t.Fatalf("owner healthy after a successful probe = %s, want 1 (closed)", got)
	}
	expect("closed again", fromOwner)
}

// TestGatewayRedirectRespectsOpenBreaker: a 307 toward a peer whose
// breaker is open is answered 502 without dialing that peer. The
// follow-up is a call like any other — admitted by the target's breaker
// first, recorded once after.
func TestGatewayRedirectRespectsOpenBreaker(t *testing.T) {
	const optimize = `{"soc":"d695","channels":256,"depth":"64K"}`
	var redirectTo atomic.Value // the address every peer's 307 names
	hits := map[string]*atomic.Int64{}
	f := newTestFleet(t, resilience.Options{}, func(label string) http.Handler {
		n := &atomic.Int64{}
		hits[label] = n
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n.Add(1)
			w.Header().Set("X-Fleet-Owner", redirectTo.Load().(string))
			w.WriteHeader(http.StatusTemporaryRedirect)
		})
	})
	owner, successor := f.ownerLabels(t, "/v1/optimize", optimize)
	var target string
	for label := range f.servers {
		if label != owner && label != successor {
			target = label
		}
	}
	redirectTo.Store(f.g.byLabel[target].addr)
	b := f.g.byLabel[target].breaker
	for i := 0; i < 3; i++ { // three deadlines in a row trip the default breaker
		if err := b.Allow(); err != nil {
			t.Fatal(err)
		}
		b.Record(context.DeadlineExceeded)
	}
	if st := b.Snapshot().State; st != resilience.Open {
		t.Fatalf("target breaker %s, want open", st)
	}

	code, body := f.serve("POST", "/v1/optimize", optimize)
	if code != http.StatusBadGateway {
		t.Errorf("status %d (body %q), want 502", code, body)
	}
	if got := hits[owner].Load(); got != 1 {
		t.Errorf("owner saw %d requests, want 1", got)
	}
	if got := hits[target].Load(); got != 0 {
		t.Errorf("redirect target behind an open breaker saw %d requests, want 0", got)
	}
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
