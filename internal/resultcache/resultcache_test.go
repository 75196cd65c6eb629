package resultcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func bg() context.Context { return context.Background() }

func TestDoComputesOnceThenHits(t *testing.T) {
	c := New(Options{})
	computes := 0
	compute := func(context.Context) ([]byte, bool, error) {
		computes++
		return []byte("v"), true, nil
	}
	v, hit, err := c.DoCond(bg(), "k", compute)
	if err != nil || hit || string(v) != "v" {
		t.Fatalf("first Do = (%q, hit=%v, %v)", v, hit, err)
	}
	v, hit, err = c.DoCond(bg(), "k", compute)
	if err != nil || !hit || string(v) != "v" {
		t.Fatalf("second Do = (%q, hit=%v, %v)", v, hit, err)
	}
	if computes != 1 {
		t.Errorf("computes = %d, want 1", computes)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(Options{})
	boom := errors.New("boom")
	if _, _, err := c.DoCond(bg(), "k", func(context.Context) ([]byte, bool, error) {
		return nil, true, boom
	}); err != boom {
		t.Fatalf("want boom, got %v", err)
	}
	v, hit, err := c.DoCond(bg(), "k", func(context.Context) ([]byte, bool, error) {
		return []byte("ok"), true, nil
	})
	if err != nil || hit || string(v) != "ok" {
		t.Fatalf("retry after error = (%q, hit=%v, %v)", v, hit, err)
	}
	if st := c.Stats(); st.Failures != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestLRUBound: Capacity is an exact entry bound, enforced least
// recently used first. Ten keys into a store of three leave three entries
// after seven evictions, and a key read just before the first overflow
// survives it, though it was inserted first. A negative capacity means
// one entry, and zero means DefaultCapacity.
func TestLRUBound(t *testing.T) {
	c := New(Options{Capacity: 3})
	put := func(key string) {
		t.Helper()
		if _, _, err := c.DoCond(bg(), key, func(context.Context) ([]byte, bool, error) {
			return []byte(key), true, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	live := func(key string) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.entries[key]
		return ok
	}
	put("k0")
	put("k1")
	put("k2")
	put("k0") // a hit: k0 is now the most recently used
	put("k3") // the first overflow evicts k1, not k0
	if !live("k0") || live("k1") {
		t.Errorf("after the first overflow: k0 live %v, k1 live %v; want k0 kept and k1 evicted", live("k0"), live("k1"))
	}
	for i := 4; i < 10; i++ {
		put(fmt.Sprintf("k%d", i))
	}
	if st := c.Stats(); st.Entries != 3 || st.Evictions != 7 || st.Misses != 10 || st.Hits != 1 {
		t.Errorf("stats %+v, want 3 entries, 7 evictions, 10 misses and 1 hit", st)
	}
	for _, key := range []string{"k7", "k8", "k9"} {
		if !live(key) {
			t.Errorf("%s evicted; the three most recent keys must stay", key)
		}
	}

	if c := New(Options{Capacity: -1}); c.cap != 1 {
		t.Errorf("Capacity -1 bounds a store at %d entries, want 1", c.cap)
	}
	if c := New(Options{}); c.cap != DefaultCapacity {
		t.Errorf("Capacity 0 bounds a store at %d entries, want %d", c.cap, DefaultCapacity)
	}
}

// TestStoreOfStruct: a Store of a struct computes its value once, and
// its hits return that same value.
func TestStoreOfStruct(t *testing.T) {
	type result struct {
		data []byte
		n    int
	}
	c := NewOf[string, result](Options{})
	computes := 0
	compute := func(context.Context) (result, bool, error) {
		computes++
		return result{data: []byte("v"), n: 7}, true, nil
	}
	for i, wantHit := range []bool{false, true} {
		v, hit, err := c.DoCond(bg(), "k", compute)
		if err != nil || hit != wantHit || string(v.data) != "v" || v.n != 7 {
			t.Errorf("Do %d = (%+v, hit=%v, %v)", i, v, hit, err)
		}
	}
	if computes != 1 {
		t.Errorf("computes = %d, want 1", computes)
	}
}

func TestWaiterContextCancellation(t *testing.T) {
	c := New(Options{})
	started := make(chan struct{})
	release := make(chan struct{})
	go c.DoCond(bg(), "slow", func(context.Context) ([]byte, bool, error) {
		close(started)
		<-release
		return []byte("v"), true, nil
	})
	<-started
	ctx, cancel := context.WithTimeout(bg(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := c.DoCond(ctx, "slow", func(context.Context) ([]byte, bool, error) {
		t.Error("waiter must not compute")
		return nil, true, nil
	}); err != context.DeadlineExceeded {
		t.Errorf("waiter err = %v, want deadline exceeded", err)
	}
	close(release)
	// The original compute still lands and is served.
	v, hit, err := c.DoCond(bg(), "slow", func(context.Context) ([]byte, bool, error) {
		t.Error("must be cached by now")
		return nil, true, nil
	})
	if err != nil || !hit || string(v) != "v" {
		t.Errorf("after release = (%q, hit=%v, %v)", v, hit, err)
	}
}

func TestCancelledComputeRetried(t *testing.T) {
	c := New(Options{})
	ctx, cancel := context.WithCancel(bg())
	cancel()
	if _, _, err := c.DoCond(ctx, "k", func(ctx context.Context) ([]byte, bool, error) {
		return nil, true, ctx.Err()
	}); err != context.Canceled {
		t.Fatalf("want canceled, got %v", err)
	}
	v, hit, err := c.DoCond(bg(), "k", func(context.Context) ([]byte, bool, error) {
		return []byte("v"), true, nil
	})
	if err != nil || hit || string(v) != "v" {
		t.Errorf("retry = (%q, hit=%v, %v)", v, hit, err)
	}
}

// TestWaiterRetriesWrappedDeadline: a waiter whose compute failed with a
// wrapped deadline (the portfolio's shape) retries under its own live
// context and gets the next compute's value, not the other request's
// error.
func TestWaiterRetriesWrappedDeadline(t *testing.T) {
	c := New(Options{})
	started := make(chan struct{})
	release := make(chan struct{})
	go c.DoCond(bg(), "k", func(context.Context) ([]byte, bool, error) {
		close(started)
		<-release
		return nil, true, fmt.Errorf("portfolio: no backend produced a design: %w", context.DeadlineExceeded)
	})
	<-started
	done := make(chan struct{})
	var (
		v   []byte
		hit bool
		err error
	)
	go func() {
		defer close(done)
		v, hit, err = c.DoCond(bg(), "k", func(context.Context) ([]byte, bool, error) {
			return []byte("v"), true, nil
		})
	}()
	for deadline := time.Now().Add(time.Second); c.Stats().Dedups < 1 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	if err != nil || hit || string(v) != "v" {
		t.Errorf("waiter = (%q, hit=%v, %v), want a fresh compute's value", v, hit, err)
	}
}

func TestPanicReleasesWaiters(t *testing.T) {
	c := New(Options{})
	started := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.DoCond(bg(), "p", func(context.Context) ([]byte, bool, error) {
			close(started)
			time.Sleep(5 * time.Millisecond)
			panic("boom")
		})
	}()
	<-started
	done := make(chan error, 1)
	go func() {
		_, _, err := c.DoCond(bg(), "p", func(context.Context) ([]byte, bool, error) {
			return []byte("v"), true, nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil && err != errPanicked {
			t.Errorf("waiter err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter deadlocked after compute panic")
	}
}

// TestStressExactlyOnceRace is the cache half of the issue's race/stress
// satellite: 32 goroutines hammer a mix of identical and distinct keys
// under -race; every distinct key must compute exactly once and every
// caller must receive byte-identical bytes for its key.
func TestStressExactlyOnceRace(t *testing.T) {
	c := New(Options{Capacity: 1 << 16})
	const (
		goroutines = 32
		rounds     = 200
		distinct   = 8
	)
	var computes [distinct]atomic.Int64
	want := make([][]byte, distinct)
	for k := range want {
		want[k] = []byte(fmt.Sprintf("payload-%d", k))
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				k := (g + r) % distinct
				key := fmt.Sprintf("key-%d", k)
				v, _, err := c.DoCond(bg(), key, func(context.Context) ([]byte, bool, error) {
					computes[k].Add(1)
					time.Sleep(time.Millisecond) // widen the dedup window
					return want[k], true, nil
				})
				if err != nil {
					t.Errorf("g%d r%d: %v", g, r, err)
					return
				}
				if !bytes.Equal(v, want[k]) {
					t.Errorf("g%d r%d: got %q, want %q", g, r, v, want[k])
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for k := range computes {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want exactly 1", k, n)
		}
	}
	st := c.Stats()
	if st.Misses != distinct {
		t.Errorf("misses = %d, want %d", st.Misses, distinct)
	}
	if total := st.Hits + st.Dedups + st.Misses; total != goroutines*rounds {
		t.Errorf("hits+dedups+misses = %d, want %d", total, goroutines*rounds)
	}
}

func TestDoCondUncacheable(t *testing.T) {
	c := New(Options{})
	computes := 0
	compute := func(context.Context) ([]byte, bool, error) {
		computes++
		return []byte(fmt.Sprintf("v%d", computes)), false, nil
	}
	v, hit, err := c.DoCond(bg(), "k", compute)
	if err != nil || hit || string(v) != "v1" {
		t.Fatalf("first DoCond = (%q, hit=%v, %v)", v, hit, err)
	}
	// store=false: the value was served but never linked — the next
	// request recomputes.
	v, hit, err = c.DoCond(bg(), "k", compute)
	if err != nil || hit || string(v) != "v2" {
		t.Fatalf("second DoCond = (%q, hit=%v, %v)", v, hit, err)
	}
	if c.Len() != 0 {
		t.Errorf("uncacheable values linked into the cache: len=%d", c.Len())
	}
	st := c.Stats()
	if st.Uncacheable != 2 || st.Misses != 2 || st.Hits != 0 || st.Failures != 0 {
		t.Errorf("stats = %+v", st)
	}
	// A store=true compute for the same key caches normally afterward.
	v, hit, err = c.DoCond(bg(), "k", func(context.Context) ([]byte, bool, error) {
		return []byte("kept"), true, nil
	})
	if err != nil || hit || string(v) != "kept" {
		t.Fatalf("storing DoCond = (%q, hit=%v, %v)", v, hit, err)
	}
	v, hit, err = c.DoCond(bg(), "k", func(context.Context) ([]byte, bool, error) {
		t.Error("stored value recomputed")
		return nil, true, nil
	})
	if err != nil || !hit || string(v) != "kept" {
		t.Fatalf("DoCond after storing compute = (%q, hit=%v, %v)", v, hit, err)
	}
}

func TestDoCondWaitersShareUncacheableValue(t *testing.T) {
	c := New(Options{})
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	var joined atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.DoCond(bg(), "k", func(context.Context) ([]byte, bool, error) {
			close(started)
			<-release
			return []byte("once"), false, nil
		})
	}()
	<-started
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.DoCond(bg(), "k", func(context.Context) ([]byte, bool, error) {
				t.Error("waiter recomputed while the uncacheable compute was in flight")
				return nil, true, errors.New("unexpected")
			})
			if err != nil || !hit || string(v) != "once" {
				t.Errorf("waiter = (%q, hit=%v, %v)", v, hit, err)
			}
			joined.Add(1)
		}()
	}
	// Give the waiters a moment to join the in-flight entry, then finish.
	for deadline := time.Now().Add(time.Second); c.Stats().Dedups < 4 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if joined.Load() != 4 {
		t.Errorf("joined = %d, want 4", joined.Load())
	}
	if c.Len() != 0 {
		t.Errorf("uncacheable value cached: len=%d", c.Len())
	}
}
