package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"multisite/internal/fleet"
)

// This file is the peer half of fleet mode: N shared-nothing serve
// processes, each owning the slice of the content-addressed key space a
// consistent-hash ring (internal/fleet) assigns it. A peer learns the
// fleet from Options.FleetPeers/FleetSelf (the -peers/-self flags); its
// caches and job journal stay fully private.
//
// Two routing protocols coexist, and the request headers distinguish
// them:
//
//	proxied   — a fleet gateway (cmd/gateway) computed the request's
//	            routing key, picked the owner (with failover), and
//	            forwarded the request with X-Fleet-Routed set. The peer
//	            serves it locally, no questions asked: the gateway has
//	            strictly more information (per-peer breakers, retry
//	            state) than the ring position alone.
//	proxyless — a bare client hit some peer directly. The peer computes
//	            the same routing key the gateway would (the shared
//	            internal/cachekey derivation) and, when the owner is
//	            another peer, answers 307 with the owner's URL. 307
//	            preserves method and body, so `curl -L` transparently
//	            re-POSTs to the right shard.
//
// Every response from a fleet peer carries X-Shard (its label), and
// job IDs are stamped "s<i>-j<seq>" so any ID maps back to its owning
// shard without coordination.

// Fleet request/response headers.
const (
	// HeaderFleetRouted marks a request already routed by a fleet
	// gateway; a peer serves it locally instead of 307-redirecting.
	HeaderFleetRouted = "X-Fleet-Routed"
	// HeaderShard carries the serving peer's shard label on every fleet
	// response.
	HeaderShard = "X-Shard"
	// HeaderCacheKey exposes the canonical content-addressed cache key
	// on /v1/optimize responses and job-submit 202s — the key both
	// cache tiers store under and the fleet routes on.
	HeaderCacheKey = "X-Cache-Key"
)

// fleetInfo is a peer's view of the fleet it belongs to.
type fleetInfo struct {
	ring  *fleet.Ring
	self  string // normalized address, a ring member
	label string // "s<i>", self's index in the sorted member list

	redirects atomic.Int64 // proxyless requests answered 307
}

// newFleet derives the peer's fleet view from the options; an empty
// FleetPeers means no fleet (single-node, as ever).
func newFleet(opts Options) (*fleetInfo, error) {
	if len(opts.FleetPeers) == 0 {
		if opts.FleetSelf != "" {
			return nil, errors.New("server: FleetSelf is set but FleetPeers is empty")
		}
		return nil, nil
	}
	peers := fleet.NormalizeAddrs(opts.FleetPeers)
	self := fleet.NormalizeAddr(opts.FleetSelf)
	label, err := fleet.ShardLabel(peers, self)
	if err != nil {
		return nil, fmt.Errorf("server: %w (set -self to this peer's address as it appears in -peers)", err)
	}
	return &fleetInfo{
		ring:  fleet.New(peers),
		self:  self,
		label: label,
	}, nil
}

// jobIDPrefix is the shard stamp for newly accepted job IDs.
func (f *fleetInfo) jobIDPrefix() string {
	if f == nil {
		return ""
	}
	return f.label + "-"
}

// ShardLabel reports this peer's fleet label ("s0"), or "" outside a
// fleet. Tests and the gateway drill use it to correlate responses.
func (s *Server) ShardLabel() string {
	if s.fleet == nil {
		return ""
	}
	return s.fleet.label
}

// redirectRemote implements the proxyless protocol for one compute
// request: when this peer is in a fleet, the request was not routed by
// a gateway, and the routing key's owner is another peer, it answers
// 307 with the owner's URL and reports true (the handler must stop).
// The Location preserves the request path and query, so the client
// replays the identical request against the owner.
func (s *Server) redirectRemote(w http.ResponseWriter, r *http.Request, key string) bool {
	if s.fleet == nil || r.Header.Get(HeaderFleetRouted) != "" {
		return false
	}
	owner := s.fleet.ring.Owner(key)
	if owner == "" || owner == s.fleet.self {
		return false
	}
	s.fleet.redirects.Add(1)
	w.Header().Set("Location", "http://"+owner+r.URL.RequestURI())
	w.Header().Set("X-Fleet-Owner", owner)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTemporaryRedirect)
	fmt.Fprintf(w, "{\"redirect\":%q,\"owner\":%q}\n", "this shard does not own the request's cache key; 307 preserves the method and body", owner)
	return true
}

// FleetRouteKey derives the fleet routing key of one request body —
// the single function both the gateway and the peers' proxyless
// redirect path go through, so the two sides structurally cannot route
// one request to two shards. endpoint is the URL path
// ("/v1/optimize", "/v1/sweep", "/v1/compare", "/v1/jobs"); body is
// the raw JSON request body. The key and the error come from the very
// parse a serving peer runs before anything else (parseOp), so a body
// the gateway rejects earns the same status and error text from the
// peer, and rejecting it costs no hop.
//
// Key selection per endpoint:
//
//	optimize — the scenario's own cache key (hash, canonical solver,
//	           config): the request lands on the shard whose caches
//	           hold (or will hold) its bytes.
//	sweep    — the base scenario's cache key. A sweep expands to many
//	           per-point keys; pinning the whole sweep to the base
//	           point's shard keeps the stream on one peer (shared-
//	           nothing forbids scatter-gather) and co-locates repeated
//	           sweeps of the same base deterministically.
//	compare  — cachekey.RouteCompare: one scenario key under the
//	           reserved "compare" pseudo-solver, so the comparison and
//	           its per-backend entries co-locate per scenario.
//	jobs     — the inner spec's key under the same three rules: a
//	           durable sweep job routes exactly where the synchronous
//	           sweep would.
func FleetRouteKey(endpoint string, body []byte) (string, int, error) {
	o, status, err := parseRequest(endpoint, body)
	if err != nil {
		return "", status, err
	}
	return o.key, 0, nil
}
