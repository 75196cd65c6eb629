package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// testKeys builds n keys shaped like the serving layer's real cache
// keys: hex SHA-256 digests.
func testKeys(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, n)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d-%d", seed, rng.Int63())))
		keys[i] = hex.EncodeToString(sum[:])
	}
	return keys
}

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("127.0.0.1:%d", 9001+i)
	}
	return out
}

func TestOwnerDeterministicAcrossInsertionOrder(t *testing.T) {
	base := members(5)
	ref := New(base, 64)
	keys := testKeys(10_000, 1)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		perm := make([]string, len(base))
		for i, j := range rng.Perm(len(base)) {
			perm[i] = base[j]
		}
		// Duplicates must collapse, not shift placement.
		perm = append(perm, perm[rng.Intn(len(perm))])
		r := New(perm, 64)
		for _, k := range keys {
			if got, want := r.Owner(k), ref.Owner(k); got != want {
				t.Fatalf("trial %d: Owner(%s) = %q under permuted members, want %q", trial, k[:12], got, want)
			}
		}
	}
}

// TestChurnOnMembershipChange is the minimal-key-movement property:
// removing a member moves exactly the keys it owned (no other key
// changes owner), adding a member steals only keys the new member now
// owns, and in both directions the moved fraction stays near the ideal
// 1/N — bounded by 2/N + eps across 10k keys.
func TestChurnOnMembershipChange(t *testing.T) {
	const eps = 0.02
	keys := testKeys(10_000, 3)
	for _, n := range []int{3, 5, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			full := members(n)
			rFull := New(full, 0)
			bound := 2.0/float64(n) + eps

			// Leave: drop each member in turn.
			for drop := 0; drop < n; drop++ {
				rest := make([]string, 0, n-1)
				for i, m := range full {
					if i != drop {
						rest = append(rest, m)
					}
				}
				rRest := New(rest, 0)
				moved := 0
				for _, k := range keys {
					before, after := rFull.Owner(k), rRest.Owner(k)
					if before == after {
						continue
					}
					moved++
					if before != full[drop] {
						t.Fatalf("leave %s: key %s moved %s -> %s though its owner stayed in the ring",
							full[drop], k[:12], before, after)
					}
				}
				if frac := float64(moved) / float64(len(keys)); frac > bound {
					t.Errorf("leave %s: churn %.4f exceeds 2/N+eps = %.4f", full[drop], frac, bound)
				}
			}

			// Join: grow the ring by one.
			joined := append(append([]string(nil), full...), fmt.Sprintf("127.0.0.1:%d", 9001+n))
			rJoined := New(joined, 0)
			moved := 0
			for _, k := range keys {
				before, after := rFull.Owner(k), rJoined.Owner(k)
				if before == after {
					continue
				}
				moved++
				if after != joined[n] {
					t.Fatalf("join: key %s moved %s -> %s though the new member did not claim it",
						k[:12], before, after)
				}
			}
			bound = 2.0/float64(n+1) + eps
			if frac := float64(moved) / float64(len(keys)); frac > bound {
				t.Errorf("join: churn %.4f exceeds 2/(N+1)+eps = %.4f", frac, bound)
			}
		})
	}
}

func TestOwnersDistinctRingOrder(t *testing.T) {
	r := New(members(4), 0)
	for _, k := range testKeys(200, 4) {
		owners := r.Owners(k, 3)
		if len(owners) != 3 {
			t.Fatalf("Owners(%s, 3) = %v", k[:12], owners)
		}
		if owners[0] != r.Owner(k) {
			t.Fatalf("Owners[0] = %s, Owner = %s", owners[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("Owners(%s, 3) repeats %s: %v", k[:12], o, owners)
			}
			seen[o] = true
			if !slices.Contains(r.Members(), o) {
				t.Fatalf("Owners returned non-member %q", o)
			}
		}
		// The failover successor is the owner after removing the dead
		// peer: the two views of "next" must agree, because a gateway
		// failing over and a rebuilt ring without the dead peer must
		// land on the same shard.
		rest := make([]string, 0, 3)
		for _, m := range r.Members() {
			if m != owners[0] {
				rest = append(rest, m)
			}
		}
		if got := New(rest, 0).Owner(k); got != owners[1] {
			t.Fatalf("successor mismatch: Owners[1] = %s, ring-without-owner Owner = %s", owners[1], got)
		}
	}
}

func TestOwnersTruncatesAndEmptyRing(t *testing.T) {
	r := New(members(2), 0)
	if got := r.Owners("k", 5); len(got) != 2 {
		t.Fatalf("Owners truncation: got %v", got)
	}
	empty := New(nil, 0)
	if empty.Owner("k") != "" || empty.Owners("k", 1) != nil || empty.Len() != 0 {
		t.Fatalf("empty ring: Owner=%q Owners=%v Len=%d", empty.Owner("k"), empty.Owners("k", 1), empty.Len())
	}
}

// TestBalance bounds the realized ownership share spread at the default
// replica count: no member owns more than ~2x its fair share of 10k
// keys. This is the load-balance half of the virtual-node story (the
// churn test is the stability half).
func TestBalance(t *testing.T) {
	keys := testKeys(10_000, 5)
	for _, n := range []int{3, 5} {
		r := New(members(n), 0)
		counts := map[string]int{}
		for _, k := range keys {
			counts[r.Owner(k)]++
		}
		fair := float64(len(keys)) / float64(n)
		for m, c := range counts {
			if float64(c) > 2*fair || float64(c) < fair/2 {
				t.Errorf("n=%d: member %s owns %d of %d keys (fair share %.0f)", n, m, c, len(keys), fair)
			}
		}
	}
}
