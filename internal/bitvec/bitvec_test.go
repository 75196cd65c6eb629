package bitvec

import (
	"math/rand"
	"testing"
)

// model is the executable specification: a plain bool slice.
type model []bool

// newVec allocates a zeroed n-bit vector.
func newVec(n int) Vec { return FromWords(make([]uint64, WordsFor(n)), n) }

// bit reports bit i of v, read straight from the backing words.
func bit(v Vec, i int) bool { return v.Words()[i>>6]>>uint(i&63)&1 != 0 }

func (m model) popCount() int {
	c := 0
	for _, b := range m {
		if b {
			c++
		}
	}
	return c
}

func (m model) firstSet() int {
	for i, b := range m {
		if b {
			return i
		}
	}
	return -1
}

func randomPair(rng *rand.Rand, n int) (Vec, model) {
	v := newVec(n)
	m := make(model, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Flip(i)
			m[i] = true
		}
	}
	return v, m
}

func checkMatch(t *testing.T, v Vec, m model, ctx string) {
	t.Helper()
	if v.Len() != len(m) {
		t.Fatalf("%s: length %d vs model %d", ctx, v.Len(), len(m))
	}
	for i := range m {
		if bit(v, i) != m[i] {
			t.Fatalf("%s: bit %d = %v, model %v", ctx, i, bit(v, i), m[i])
		}
	}
	// Against an all-zero vector, Compare counts and locates the set bits.
	count, first := Compare(v, newVec(v.Len()))
	if want := m.popCount(); count != want {
		t.Fatalf("%s: popcount %d, model %d", ctx, count, want)
	}
	if want := m.firstSet(); first != want {
		t.Fatalf("%s: firstset %d, model %d", ctx, first, want)
	}
}

func TestRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		v, m := randomPair(rng, n)
		checkMatch(t, v, m, "fresh")
		for op := 0; op < 20; op++ {
			i := rng.Intn(n)
			v.Flip(i)
			m[i] = !m[i]
			checkMatch(t, v, m, "after op")
		}
	}
}

func TestCompareAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(260)
		a, am := randomPair(rng, n)
		b := newVec(n)
		bm := make(model, n)
		b.CopyFrom(a)
		copy(bm, am)
		// Flip a few bits of b.
		for k := rng.Intn(4); k > 0; k-- {
			i := rng.Intn(n)
			b.Flip(i)
			bm[i] = !bm[i]
		}
		wantCount, wantFirst := 0, -1
		for i := range am {
			if am[i] != bm[i] {
				wantCount++
				if wantFirst < 0 {
					wantFirst = i
				}
			}
		}
		count, first := Compare(a, b)
		if count != wantCount || first != wantFirst {
			t.Fatalf("n=%d: Compare = (%d,%d), model (%d,%d)", n, count, first, wantCount, wantFirst)
		}
	}
}

func TestMaskTailAfterWordWrites(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 128, 130} {
		v := newVec(n)
		for i := range v.Words() {
			v.Words()[i] = ^uint64(0)
		}
		v.MaskTail()
		count, first := Compare(v, newVec(n))
		if count != n {
			t.Errorf("n=%d: popcount after MaskTail = %d", n, count)
		}
		if first != 0 {
			t.Errorf("n=%d: firstset = %d", n, first)
		}
	}
}

func TestFromWordsSharesStorage(t *testing.T) {
	w := make([]uint64, WordsFor(100))
	a := FromWords(w, 100)
	a.Flip(99)
	if w[1] == 0 {
		t.Fatal("FromWords did not share storage")
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched FromWords length did not panic")
		}
	}()
	FromWords(w, 1000)
}
