package gateway

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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

func newTestFleet(t *testing.T) *testFleet {
	t.Helper()
	var addrs []string
	var unstarted []*httptest.Server
	for i := 0; i < 3; i++ {
		ts := httptest.NewUnstartedServer(nil)
		unstarted = append(unstarted, ts)
		addrs = append(addrs, ts.Listener.Addr().String())
	}
	g, err := New(Options{Peers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{g: g, servers: map[string]*httptest.Server{}}
	for i, ts := range unstarted {
		label := g.peers[addrs[i]].label
		ts.Config.Handler = fakePeer(label)
		ts.Start()
		t.Cleanup(ts.Close)
		f.servers[label] = ts
	}
	return f
}

// ownerLabels returns the shard labels of the ring owner of an optimize
// body's routing key and of its successor.
func (f *testFleet) ownerLabels(t *testing.T, body string) (owner, successor string) {
	t.Helper()
	key, _, err := server.FleetRouteKey("/v1/optimize", []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	owners := f.g.ring.Owners(key, 2)
	return f.g.peers[owners[0]].label, f.g.peers[owners[1]].label
}

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
			owner, successor := f.ownerLabels(t, optimize)
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
			f := newTestFleet(t)
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
