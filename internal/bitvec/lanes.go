package bitvec

import "math/bits"

// LaneCount is the number of Monte-Carlo scenarios a Lanes word carries:
// one per bit of a uint64.
const LaneCount = 64

// Lanes is the scenario-transposed counterpart of Vec: where a Vec packs
// the 64 consecutive *bit positions* of one scan-out stream into each
// word, a Lanes view packs the same bit position of 64 independent
// *scenarios* into each word — word i holds position i of every scenario,
// and bit s of that word belongs to scenario lane s. One XOR + popcount
// over a Lanes word therefore advances 64 Monte-Carlo trials at once
// (DESIGN.md §13), the transpose of the §7 layout where it advanced 64
// cycles of one trial.
//
// Because all lanes of a window share the stimulus, the expectation side
// is a plain Vec broadcast across lanes (BroadcastFrom) and per-scenario
// faults are per-lane XOR masks at their bit position (FlipLanes); the
// mismatch extraction walks the window's words once, front to back, and
// resolves every lane's first differing position in the same sweep
// (FirstDiffPerLaneFrom).
//
// The zero value is an empty view. Like Vec, Lanes is a small header over
// a word slice; copying aliases the storage.
type Lanes struct {
	w []uint64
}

// LanesFromWords wraps an existing word slice as a lane view — one word
// per bit position — sharing the storage, so one scratch slab can serve
// every (pattern, chain) window of a scenario block.
func LanesFromWords(w []uint64) Lanes { return Lanes{w: w} }

// BroadcastFrom fills positions [from, len) of the view from a packed
// expectation vector: position i becomes all-ones when bit i of v is set,
// all-zeros otherwise — every scenario lane receives the same expected
// response stream, which is what a shared-stimulus Monte-Carlo window
// looks like before fault injection. v must cover every position.
// Callers that know the earlier positions will never be read (no fault
// can flip them, so response and expectation are equal there by
// construction) skip materializing them. Positions below from are left
// untouched.
func (l Lanes) BroadcastFrom(v Vec, from int) {
	if v.Len() < len(l.w) {
		panic("bitvec: Broadcast source shorter than lane view")
	}
	if from < 0 {
		from = 0
	}
	vw := v.Words()
	for i := from; i < len(l.w); i++ {
		// Arithmetic select: 0 -> 0x0, 1 -> all-ones, branch-free.
		l.w[i] = -(vw[i>>6] >> uint(i&63) & 1)
	}
}

// FlipLanes XORs a per-lane mask into one bit position: scenario lane s
// sees its response bit at this position inverted iff bit s of mask is
// set. This is fault injection in the transposed layout — one word op
// injects the same fault site into any subset of the 64 trials.
func (l Lanes) FlipLanes(pos int, mask uint64) {
	l.w[pos] ^= mask
}

// FirstDiffPerLaneFrom is the batched per-lane first-set extraction: it
// walks the mismatch words of one shift window — the lane-transposed
// responses r against the broadcast expectation e — once, front to back
// from position from, and records for every lane in pending the first
// position at which that lane's response differs from the expectation.
// firstPos must have LaneCount entries; firstPos[s] is written only for
// resolved lanes. The returned mask holds the lanes that mismatched
// somewhere in the window; the walk stops as soon as every pending lane
// has resolved, and positions beyond the expectation's length are never
// read. e must cover every position of r. When every injected fault sits
// at or above from, positions below it cannot mismatch and need not be
// scanned (or even broadcast, see BroadcastFrom).
func FirstDiffPerLaneFrom(r Lanes, e Vec, pending uint64, firstPos []int, from int) uint64 {
	if len(firstPos) < LaneCount {
		panic("bitvec: firstPos shorter than LaneCount")
	}
	if e.Len() < len(r.w) {
		panic("bitvec: expectation shorter than lane view")
	}
	if from < 0 {
		from = 0
	}
	ew := e.Words()
	var resolved uint64
	for i := from; i < len(r.w) && pending != 0; i++ {
		expect := -(ew[i>>6] >> uint(i&63) & 1)
		diff := (r.w[i] ^ expect) & pending
		resolved |= diff
		pending &^= diff
		for diff != 0 {
			s := bits.TrailingZeros64(diff)
			firstPos[s] = i
			diff &^= 1 << s
		}
	}
	return resolved
}
