package bitvec

import (
	"math/rand"
	"testing"
)

func TestLanesBroadcast(t *testing.T) {
	v := newVec(130)
	for _, i := range []int{0, 5, 63, 64, 77, 129} {
		v.Flip(i)
	}
	w := make([]uint64, 130)
	LanesFromWords(w).BroadcastFrom(v, 0)
	for i := 0; i < 130; i++ {
		want := uint64(0)
		if bit(v, i) {
			want = ^uint64(0)
		}
		if w[i] != want {
			t.Fatalf("position %d: broadcast word %#x, want %#x", i, w[i], want)
		}
	}
}

func TestLanesFillAndFlip(t *testing.T) {
	words := make([]uint64, 8)
	for i := range words {
		words[i] = 0xff00ff00ff00ff00
	}
	LanesFromWords(words).FlipLanes(3, 1<<8|1<<9)
	for i, w := range words {
		want := uint64(0xff00ff00ff00ff00)
		if i == 3 {
			want ^= 1<<8 | 1<<9
		}
		if w != want {
			t.Fatalf("position %d: %#x, want %#x", i, w, want)
		}
	}
}

func TestFirstDiffPerLaneBasic(t *testing.T) {
	// Expectation: alternating bits over 100 positions.
	e := newVec(100)
	for i := 0; i < 100; i += 2 {
		e.Flip(i)
	}
	l := LanesFromWords(make([]uint64, 100))
	l.BroadcastFrom(e, 0)
	// Lane 0 flips position 7, lane 3 positions 2 and 90 (first wins),
	// lane 63 position 0; lane 5 stays clean.
	l.FlipLanes(7, 1<<0)
	l.FlipLanes(2, 1<<3)
	l.FlipLanes(90, 1<<3)
	l.FlipLanes(0, 1<<63)

	var first [LaneCount]int
	pending := uint64(1<<0 | 1<<3 | 1<<5 | 1<<63)
	resolved := FirstDiffPerLane(l, e, pending, first[:])
	if want := uint64(1<<0 | 1<<3 | 1<<63); resolved != want {
		t.Fatalf("resolved = %#x, want %#x", resolved, want)
	}
	if first[0] != 7 || first[3] != 2 || first[63] != 0 {
		t.Errorf("first positions = %d,%d,%d want 7,2,0", first[0], first[3], first[63])
	}
}

func TestFirstDiffPerLaneIgnoresNonPending(t *testing.T) {
	e := newVec(10)
	l := LanesFromWords(make([]uint64, 10))
	l.BroadcastFrom(e, 0)
	l.FlipLanes(4, 1<<7)
	var first [LaneCount]int
	if got := FirstDiffPerLane(l, e, 0, first[:]); got != 0 {
		t.Errorf("resolved %#x with empty pending", got)
	}
	if got := FirstDiffPerLane(l, e, 1<<8, first[:]); got != 0 {
		t.Errorf("resolved %#x for a clean lane", got)
	}
}

// TestFirstDiffPerLaneMatchesNaive cross-checks the single-sweep batched
// extraction against a per-lane scan on random windows.
func TestFirstDiffPerLaneMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		e := newVec(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				e.Flip(i)
			}
		}
		l := LanesFromWords(make([]uint64, n))
		l.BroadcastFrom(e, 0)
		type flip struct{ pos, lane int }
		var flips []flip
		for k := rng.Intn(8); k > 0; k-- {
			f := flip{rng.Intn(n), rng.Intn(LaneCount)}
			flips = append(flips, f)
			l.FlipLanes(f.pos, 1<<uint(f.lane))
		}
		pending := rng.Uint64()

		naiveFirst := make(map[int]int)
		for _, f := range flips {
			// An even number of flips at one (pos, lane) cancels.
			count := 0
			for _, g := range flips {
				if g == f {
					count++
				}
			}
			if count%2 == 0 || pending&(1<<uint(f.lane)) == 0 {
				continue
			}
			if cur, ok := naiveFirst[f.lane]; !ok || f.pos < cur {
				naiveFirst[f.lane] = f.pos
			}
		}

		var first [LaneCount]int
		resolved := FirstDiffPerLane(l, e, pending, first[:])
		var wantResolved uint64
		for lane := range naiveFirst {
			wantResolved |= 1 << uint(lane)
		}
		if resolved != wantResolved {
			t.Fatalf("trial %d: resolved %#x, want %#x", trial, resolved, wantResolved)
		}
		for lane, pos := range naiveFirst {
			if first[lane] != pos {
				t.Fatalf("trial %d lane %d: first %d, want %d", trial, lane, first[lane], pos)
			}
		}
	}
}

// TestBroadcastFromAndFirstDiffFrom: the ranged variants agree with the
// full-range walk whenever every flip sits at or above the start
// position — the contract the scenario engine relies on to skip the
// fault-free prefix of a chain.
func TestBroadcastFromAndFirstDiffFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(300)
		e := newVec(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				e.Flip(i)
			}
		}
		lo := rng.Intn(n)
		fullWords, rangedWords := make([]uint64, n), make([]uint64, n)
		full, ranged := LanesFromWords(fullWords), LanesFromWords(rangedWords)
		full.BroadcastFrom(e, 0)
		// Positions below lo are deliberately left as garbage.
		for i := 0; i < lo; i++ {
			rangedWords[i] = rng.Uint64()
		}
		ranged.BroadcastFrom(e, lo)
		for i := lo; i < n; i++ {
			if rangedWords[i] != fullWords[i] {
				t.Fatalf("trial %d: position %d differs after BroadcastFrom(%d)", trial, i, lo)
			}
		}

		// Flips only at or above lo.
		for k := rng.Intn(6); k > 0; k-- {
			pos := lo + rng.Intn(n-lo)
			mask := rng.Uint64()
			full.FlipLanes(pos, mask)
			ranged.FlipLanes(pos, mask)
		}
		pending := rng.Uint64()
		var fullFirst, rangedFirst [LaneCount]int
		wantResolved := FirstDiffPerLane(full, e, pending, fullFirst[:])
		gotResolved := FirstDiffPerLaneFrom(ranged, e, pending, rangedFirst[:], lo)
		if gotResolved != wantResolved {
			t.Fatalf("trial %d: resolved %#x, want %#x", trial, gotResolved, wantResolved)
		}
		for m := wantResolved; m != 0; {
			s := 0
			for ; m&(1<<uint(s)) == 0; s++ {
			}
			m &^= 1 << uint(s)
			if rangedFirst[s] != fullFirst[s] {
				t.Fatalf("trial %d lane %d: first %d, want %d", trial, s, rangedFirst[s], fullFirst[s])
			}
		}
	}
}

// FirstDiffPerLane is FirstDiffPerLaneFrom over the whole window: the
// full-range walk the ranged variant is checked against.
func FirstDiffPerLane(r Lanes, e Vec, pending uint64, firstPos []int) uint64 {
	return FirstDiffPerLaneFrom(r, e, pending, firstPos, 0)
}
