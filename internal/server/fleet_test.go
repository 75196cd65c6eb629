package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"multisite/internal/fleet"
)

// fleetTestPeers is a two-member fleet with this test's server as one
// peer; the other peer is never started, since a peer never contacts
// another.
var fleetTestPeers = []string{"127.0.0.1:19001", "127.0.0.1:19002"}

// TestFleetPeerServesAnyKey pins that a peer places nothing: a request
// whose routing key the other member owns is served where it lands,
// with the bytes a single-node server answers, its shard label, and the
// routing key as its cache key.
func TestFleetPeerServesAnyKey(t *testing.T) {
	body := `{"soc":"d695","channels":256,"depth":"64K"}`
	key, _, err := FleetRouteKey("/v1/optimize", []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	owner := fleet.New(fleetTestPeers).Owners(key, 1)[0]
	var other string
	for _, p := range fleetTestPeers {
		if p != owner {
			other = p
		}
	}

	s, ts := newTestServer(t, Options{FleetPeers: fleetTestPeers, FleetSelf: other})
	resp, got := post(t, ts, "/v1/optimize", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("non-owner shard: status = %d, want 200 (body %s)", resp.StatusCode, got)
	}
	if h := resp.Header.Get(HeaderCacheKey); h != key {
		t.Errorf("X-Cache-Key = %q, want the routing key %q", h, key)
	}
	if h := resp.Header.Get(HeaderShard); h != s.ShardLabel() {
		t.Errorf("X-Shard = %q, want %q", h, s.ShardLabel())
	}
	_, single := newTestServer(t, Options{})
	if _, want := post(t, single, "/v1/optimize", body); !bytes.Equal(got, want) {
		t.Errorf("non-owner body differs from a single node's:\npeer:   %s\nsingle: %s", got, want)
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
// rejects a self outside the peer list, or a self without peers, with an
// error.
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
