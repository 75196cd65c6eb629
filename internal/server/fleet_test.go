package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"multisite/internal/fleet"
)

// fleetTestPeers is a two-member fleet with this test's server as one
// peer; the other "peer" is never started — the proxyless protocol only
// names it in Location headers.
var fleetTestPeers = []string{"127.0.0.1:19001", "127.0.0.1:19002"}

func newFleetServer(t *testing.T, self string) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServer(t, Options{FleetPeers: fleetTestPeers, FleetSelf: self})
}

// postNoFollow posts without following redirects, so a 307 answer can
// be inspected instead of chased to a peer that is not running.
func postNoFollow(t *testing.T, ts *httptest.Server, path, body string) *http.Response {
	t.Helper()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestFleetProxylessRedirect pins the proxyless protocol: a request
// whose routing key another shard owns is answered 307 with the owner's
// URL; the same request marked X-Fleet-Routed (or sent to the owner) is
// served locally with the shard and cache-key headers set.
func TestFleetProxylessRedirect(t *testing.T) {
	body := `{"soc":"d695","channels":256,"depth":"64K"}`
	key, _, err := FleetRouteKey("/v1/optimize", []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	ring := fleet.New(fleetTestPeers)
	owner := ring.Owner(key)
	var other string
	for _, p := range fleetTestPeers {
		if p != owner {
			other = p
		}
	}

	// The wrong shard redirects to the owner, and counts it.
	s, ts := newFleetServer(t, other)
	resp := postNoFollow(t, ts, "/v1/optimize", body)
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("wrong shard: status = %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "http://"+owner+"/v1/optimize" {
		t.Errorf("Location = %q, want the owner %q", loc, owner)
	}
	if got := resp.Header.Get(HeaderShard); got != s.ShardLabel() {
		t.Errorf("X-Shard = %q, want %q", got, s.ShardLabel())
	}
	if _, m := get(t, ts, "/metrics"); !strings.Contains(string(m), "multisite_fleet_redirects_total 1") {
		t.Error("metrics missing multisite_fleet_redirects_total 1")
	}

	// A gateway-routed request is served locally even on the wrong shard.
	req, err := http.NewRequest("POST", ts.URL+"/v1/optimize", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderFleetRouted, "1")
	routed, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	routed.Body.Close()
	if routed.StatusCode != http.StatusOK {
		t.Fatalf("routed request on wrong shard: status = %d, want 200", routed.StatusCode)
	}
	if got := routed.Header.Get(HeaderCacheKey); got != key {
		t.Errorf("X-Cache-Key = %q, want the routing key %q", got, key)
	}

	// The owner serves the bare request directly.
	_, ts2 := newFleetServer(t, owner)
	resp2, _ := post(t, ts2, "/v1/optimize", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("owner shard: status = %d, want 200", resp2.StatusCode)
	}
	if got := resp2.Header.Get(HeaderCacheKey); got != key {
		t.Errorf("owner X-Cache-Key = %q, want %q", got, key)
	}
}

// TestFleetRouteKeyAgreesWithServerKey pins that the gateway-side key
// derivation (FleetRouteKey) and the serving path's cache key agree for
// every endpoint shape, including the sweep's base-scenario rule and
// the compare pseudo-solver.
func TestFleetRouteKeyAgreesWithServerKey(t *testing.T) {
	optBody := `{"soc":"d695","channels":256,"depth":"64K"}`
	optKey, _, err := FleetRouteKey("/v1/optimize", []byte(optBody))
	if err != nil {
		t.Fatal(err)
	}
	sweepKey, _, err := FleetRouteKey("/v1/sweep", []byte(`{"soc":"d695","channels":256,"depth":"64K","contact_yields":[1,0.99]}`))
	if err != nil {
		t.Fatal(err)
	}
	if sweepKey != optKey {
		t.Errorf("sweep base key %s != optimize key %s", sweepKey, optKey)
	}
	jobKey, _, err := FleetRouteKey("/v1/jobs", []byte(`{"type":"optimize","request":{"soc":"d695","channels":256,"depth":"64K"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if jobKey != optKey {
		t.Errorf("job key %s != inner optimize key %s", jobKey, optKey)
	}
	cmpKey, _, err := FleetRouteKey("/v1/compare", []byte(`{"soc":"d695","channels":256,"depth":"64K"}`))
	if err != nil {
		t.Fatal(err)
	}
	if cmpKey == optKey {
		t.Error("compare key aliases the optimize key; the pseudo-solver dimension is lost")
	}

	if _, status, err := FleetRouteKey("/v1/optimize", []byte(`{"soc":"nope"}`)); err == nil || status != http.StatusNotFound {
		t.Errorf("unknown soc: status = %d, err = %v; want 404", status, err)
	}
	if _, status, err := FleetRouteKey("/v1/optimize", []byte(`{"bogus":1}`)); err == nil || status != http.StatusBadRequest {
		t.Errorf("bogus field: status = %d, err = %v; want 400", status, err)
	}

	// A body the gateway rejects earns the same status and error text
	// from a standalone server, so rejecting it without a hop is
	// invisible to the client.
	_, ts := newDurableServer(t, t.TempDir(), Options{})
	bad := []struct{ path, body string }{
		{"/v1/optimize", `{`},
		{"/v1/optimize", `{"soc":"d695","soc_text":"SocName x"}`},
		{"/v1/optimize", `{"soc_text":"SocName broken\nModule"}`},
		{"/v1/optimize", `{"soc":"d695","solver":"simplex"}`},
		{"/v1/optimize", `{"soc":"d695","channels":1}`},
		{"/v1/sweep", `{"soc":"d695","depths":"1K:4097K:1K"}`},
		{"/v1/sweep", `{"soc":"d695","solvers":["exact"]}`},
		{"/v1/compare", `{"soc":"nope","solver":"exact"}`},
		{"/v1/compare", `{"soc":"d695","solvers":["exact"]}`},
		{"/v1/compare", `{"soc":"d695","channels":1}`},
		{"/v1/jobs", `{"type":"sweep","request":{"soc":"d695","solver":"nope"}}`},
		{"/v1/jobs", `{"type":"optimize","request":{"soc":"d695","anytime":true}}`},
		{"/v1/jobs", `{"type":"bogus","request":{"soc":"d695"}}`},
		{"/v1/jobs", `{"type":"optimize"}`},
	}
	for _, c := range bad {
		_, status, err := FleetRouteKey(c.path, []byte(c.body))
		if err == nil {
			t.Errorf("%s %s: FleetRouteKey accepted it", c.path, c.body)
			continue
		}
		resp, data := post(t, ts, c.path, c.body)
		var e errorResponse
		if jsonErr := json.Unmarshal(data, &e); jsonErr != nil {
			t.Errorf("%s %s: server answered %d %s", c.path, c.body, resp.StatusCode, data)
			continue
		}
		if resp.StatusCode != status || e.Error != err.Error() {
			t.Errorf("%s %s: gateway %d %q, server %d %q", c.path, c.body, status, err, resp.StatusCode, e.Error)
		}
	}
}

// TestFleetConfigValidation pins the constructor contract: NewWithData
// rejects a self outside the peer list, New panics on it.
func TestFleetConfigValidation(t *testing.T) {
	_, err := NewWithData(Options{FleetPeers: fleetTestPeers, FleetSelf: "10.9.9.9:1"})
	if err == nil {
		t.Error("NewWithData accepted a self outside the peer list")
	}
	if _, err := NewWithData(Options{FleetSelf: "10.9.9.9:1"}); err == nil {
		t.Error("NewWithData accepted FleetSelf without FleetPeers")
	}
	// Scheme and case differences must normalize away.
	s, err := NewWithData(Options{FleetPeers: []string{"HTTP://127.0.0.1:19001/", "127.0.0.1:19002"}, FleetSelf: "http://127.0.0.1:19001"})
	if err != nil {
		t.Fatalf("normalized self rejected: %v", err)
	}
	if s.ShardLabel() != "s0" {
		t.Errorf("ShardLabel = %q, want s0", s.ShardLabel())
	}
}
