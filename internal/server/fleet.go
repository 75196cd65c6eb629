package server

import (
	"errors"
	"fmt"

	"multisite/internal/fleet"
)

// This file is the peer half of fleet mode: N shared-nothing serve
// processes behind one cmd/gateway, the only party that places
// requests. The gateway routes each request to the shard a
// consistent-hash ring (internal/fleet) gives its routing key. A peer
// holds no ring and decides nothing: it serves whatever reaches it,
// with the bytes the key's owner would send, so a request that lands
// elsewhere costs only cache affinity. A peer learns the fleet from
// Options.FleetPeers/FleetSelf (the -peers/-self flags) only to derive
// and validate its shard label; its caches and job journal stay fully
// private.
//
// Every response from a fleet peer carries X-Shard (its label), and
// job IDs are stamped "s<i>-j<seq>" so any ID maps back to its owning
// shard without coordination.

// Fleet response headers.
const (
	// HeaderShard carries the serving peer's shard label on every fleet
	// response.
	HeaderShard = "X-Shard"
	// HeaderCacheKey exposes the canonical content-addressed cache key
	// on /v1/optimize responses and job-submit 202s — the key both
	// cache tiers store under and the fleet routes on.
	HeaderCacheKey = "X-Cache-Key"
)

// shardLabel derives the peer's shard label from the options: "s<i>",
// self's index in the sorted member list, or "" outside a fleet (an
// empty FleetPeers: single-node, as ever).
func shardLabel(opts Options) (string, error) {
	if len(opts.FleetPeers) == 0 {
		if opts.FleetSelf != "" {
			return "", errors.New("server: FleetSelf is set but FleetPeers is empty")
		}
		return "", nil
	}
	label, err := fleet.ShardLabel(opts.FleetPeers, opts.FleetSelf)
	if err != nil {
		return "", fmt.Errorf("server: %w (set -self to this peer's address as it appears in -peers)", err)
	}
	return label, nil
}

// ShardLabel reports this peer's fleet label ("s0"), or "" outside a
// fleet. Tests and the gateway drill use it to correlate responses.
func (s *Server) ShardLabel() string { return s.shard }

// FleetRouteKey derives the fleet routing key of one request body —
// the function the gateway places every request by. endpoint is the
// URL path ("/v1/optimize", "/v1/sweep", "/v1/compare", "/v1/jobs");
// body is the raw JSON request body. The key and the error come from
// the very parse a serving peer runs before anything else (parseOp),
// so a routed request lands on the shard whose caches hold its key,
// and a body the gateway rejects earns the same status and error text
// from the peer, and rejecting it costs no hop.
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
