// Package bitvec provides packed bit vectors for the word-parallel
// bit-accurate simulator: a Vec stores n bits in ⌈n/64⌉ uint64 words, so
// comparing two scan-out streams is an XOR + popcount per 64 bits instead
// of a branch per bit, and locating the first mismatching bit is a
// trailing-zero scan of the first differing word.
//
// The invariant throughout is that the unused high bits of the last word
// are zero; every mutator preserves it, so whole-vector operations
// (Compare) never need per-bit masking.
package bitvec

import "math/bits"

// Vec is a packed bit vector of fixed length. The zero value is an empty
// vector. Vec is a small header (slice + length); copying it aliases the
// underlying words, as with slices.
type Vec struct {
	w []uint64
	n int
}

// WordsFor returns the number of 64-bit words needed for n bits.
func WordsFor(n int) int { return (n + 63) >> 6 }

// FromWords wraps an existing word slice as an n-bit vector, sharing the
// storage — the slab allocator the simulator uses to carve per-chain
// registers out of one backing array. len(w) must be WordsFor(n); the
// caller is responsible for the high-bit invariant (all-zero words, or
// MaskTail after writing them, establish it).
func FromWords(w []uint64, n int) Vec {
	if len(w) != WordsFor(n) {
		panic("bitvec: word slice does not match bit length")
	}
	return Vec{w: w, n: n}
}

// Len returns the vector's length in bits.
func (v Vec) Len() int { return v.n }

// Words exposes the backing words (low bit of word 0 is bit 0). Mutating
// them directly is allowed as long as the high-bit invariant is restored;
// MaskTail does that.
func (v Vec) Words() []uint64 { return v.w }

// MaskTail zeroes the unused high bits of the last word, restoring the
// invariant after direct word writes (e.g. a 64-bit-per-step generator).
func (v Vec) MaskTail() {
	if r := uint(v.n & 63); r != 0 && len(v.w) > 0 {
		v.w[len(v.w)-1] &= (1 << r) - 1
	}
}

// Flip inverts bit i.
func (v Vec) Flip(i int) { v.w[i>>6] ^= 1 << uint(i&63) }

// CopyFrom copies u's bits into v. The lengths must match.
func (v Vec) CopyFrom(u Vec) {
	if v.n != u.n {
		panic("bitvec: length mismatch in CopyFrom")
	}
	copy(v.w, u.w)
}

// Compare XOR-diffs two equal-length vectors in one pass and returns the
// number of differing bits and the index of the first difference (-1 when
// the vectors are identical) — the mismatch count and first-fail position
// of one scan-out window, one word at a time.
func Compare(a, b Vec) (count, first int) {
	if a.n != b.n {
		panic("bitvec: length mismatch in Compare")
	}
	first = -1
	for i := range a.w {
		if d := a.w[i] ^ b.w[i]; d != 0 {
			if first < 0 {
				first = i<<6 + bits.TrailingZeros64(d)
			}
			count += bits.OnesCount64(d)
		}
	}
	return count, first
}
