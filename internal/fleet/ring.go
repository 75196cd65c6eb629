// Package fleet places the serving layer's content-addressed key space
// onto a set of shared-nothing peers with a consistent-hash ring.
//
// Every optimize/sweep/job result in the system is keyed by a SHA-256
// (internal/cachekey), so the fleet story is pure key-space sharding: N
// cmd/serve processes each own a slice of the ring, the gateway — the
// only party that holds a ring — routes each request to the shard that
// owns its key, and the shards share nothing — no coordination, no
// replication, no cross-shard state. Any single shard can die without
// touching the others' caches or journals.
//
// The ring is the classic virtual-node construction: each member is
// hashed onto the ring at replicas pseudo-random points (SHA-256 of
// "member#i"), a key is owned by the member whose point is the first at
// or clockwise after the key's own hash point, and lookups binary-search
// the sorted point list. Virtual nodes make the ownership shares
// near-uniform (the churn property test measures the imbalance), and
// the construction gives consistent hashing its defining property:
// membership change moves only the keys of the affected ring segments —
// removing a member reassigns exactly the keys it owned, adding one
// steals only the keys it now owns — while every other key keeps its
// owner. Placement is a pure function of the member set: the same
// members yield byte-identical rings in any insertion order.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// replicas is the virtual-node count per member. 128 points per member
// keeps the largest/smallest ownership share within ~2x at N=3 (the
// property test bounds realized churn, which is what matters), at a few
// KB of ring per member. Every gateway builds its ring with it, so two
// gateways over the same -peers list agree on placement.
const replicas = 128

// Ring is an immutable consistent-hash ring over a member set. Build
// with New; lookups are safe for concurrent use.
type Ring struct {
	members []string // sorted, unique
	points  []point  // sorted by hash
}

type point struct {
	hash   uint64
	member int // index into members
}

// New builds the ring over the given members (duplicates collapse,
// order is irrelevant) with 128 virtual nodes per member. An empty
// member set yields a ring whose lookups return nil.
func New(members []string) *Ring {
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq, points: make([]point, 0, len(uniq)*replicas)}
	for mi, m := range uniq {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, point{hash: hashString(m + "#" + strconv.Itoa(i)), member: mi})
		}
	}
	// Sort by hash; ties (astronomically unlikely, but the determinism
	// pin demands totality) break on the sorted member index, which is
	// itself insertion-order independent.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the member set, sorted. Callers must not mutate it.
func (r *Ring) Members() []string { return r.members }

// Len is the member count.
func (r *Ring) Len() int { return len(r.members) }

// Owners returns up to n distinct members in ring order starting at
// key's owner — the member whose virtual node is the first at or
// clockwise after the key's hash point: the owner first, then the
// successors a router fails over to when a peer is down. n > Len() is
// truncated; an empty ring returns nil.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i, at := 0, r.locate(key); len(out) < n && i < len(r.points); i++ {
		p := r.points[(at+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// locate binary-searches the first point at or after key's hash,
// wrapping past the top of the ring.
func (r *Ring) locate(key string) int {
	h := hashString(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// String summarizes the ring for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("fleet.Ring{%d members, %d vnodes}", len(r.members), len(r.points))
}

// hashString maps a string onto the ring's coordinate space: the first
// 8 bytes of its SHA-256, big-endian. Keys arriving from
// internal/cachekey are already hex SHA-256 digests; hashing again
// costs one compression round and keeps member points and key points in
// one uniformly-mixed space regardless of the input's own distribution.
func hashString(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
