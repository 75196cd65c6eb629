// Package resultcache is the repository's one singleflight cache: a
// size-bounded LRU that computes each key at most once across concurrent
// callers. It backs both cache tiers of the serving layer:
//
//   - engine.Memo stores live Step 1+2 architecture designs in a Store
//     keyed on (solver, SOC pointer, ATE, TAM options), so a sweep's
//     cost-model variants re-score one design instead of designing again.
//   - The server stores finished optimizes in a Store keyed on request
//     content (canonical SOC hash + ATE + TAM options + cost model), so
//     repeated identical point queries — including inline SOCs a client
//     uploads — are served without touching the optimizer, and two
//     textually different requests describing the same chip share one
//     entry. Rows are stored only by a disk-backed server, as views in
//     a Store of their own.
//
// Concurrent requests for one key are deduplicated singleflight-style:
// the first computes, the rest wait on the entry and receive the same
// value, so a thundering herd of identical requests costs exactly one
// compute. A compute that errors or panics is never cached, and its
// waiters are released. A Store is one mutex over one map and LRU list,
// bounded by entry count; eviction never touches an in-flight entry.
//
// Store[K, V] holds values of any type under any comparable key; Cache,
// the instantiation New returns, holds serialized responses under string
// keys. Values are shared, not copied: every hit returns the same value,
// so callers must treat it as immutable.
package resultcache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// errPanicked is what waiters joined to a compute that panicked receive;
// the panic itself propagates on the computing goroutine.
var errPanicked = errors.New("resultcache: compute panicked")

// DefaultCapacity bounds a Store to this many entries when
// Options.Capacity is zero.
const DefaultCapacity = 4096

// Options tunes a Store.
type Options struct {
	// Capacity is the exact maximum number of completed entries; 0 means
	// DefaultCapacity, and a negative value means 1.
	Capacity int
}

// Store is a singleflight LRU of values of type V under keys of type K.
// The zero value is not usable; use NewOf.
type Store[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[K, V]
	lru     list.List // completed entries, front = most recent
	cap     int

	hits      atomic.Int64 // completed entry found
	misses    atomic.Int64 // this request ran the compute function
	dedups    atomic.Int64 // joined another request's in-flight compute
	evictions atomic.Int64
	failures  atomic.Int64 // computes that returned an error (not cached)

	// uncacheable counts DoCond computes that succeeded but declined to
	// store their value (store=false) — served once, never cached.
	uncacheable atomic.Int64
}

// Cache is the Store of serialized responses.
type Cache = Store[string, []byte]

type entry[K comparable, V any] struct {
	key  K
	done chan struct{}
	val  V
	err  error
	elem *list.Element // nil while in flight
}

// New returns an empty cache of serialized responses.
func New(opts Options) *Cache { return NewOf[string, []byte](opts) }

// NewOf returns an empty store of values of type V under keys of type K.
func NewOf[K comparable, V any](opts Options) *Store[K, V] {
	capacity := opts.Capacity
	switch {
	case capacity == 0:
		capacity = DefaultCapacity
	case capacity < 0:
		capacity = 1
	}
	return &Store[K, V]{entries: make(map[K]*entry[K, V]), cap: capacity}
}

// DoCond returns the cached value for key, computing it at most once
// across concurrent callers. On a miss the calling goroutine runs compute;
// other callers for the same key block until it finishes and share its
// value (or its error — errors are never cached, so a later request
// retries). The hit result distinguishes a served-from-cache response
// (true, either a completed entry or a joined in-flight compute) from a
// fresh compute (false). A caller whose ctx expires while waiting
// unblocks with the context's error; the compute keeps running for the
// others. A waiter whose compute failed with a cancellation (by
// errors.Is) retries under its own context instead of sharing it.
//
// compute returns (value, store, error), and store=false delivers the
// value to this caller and any waiters joined to the in-flight entry but
// never links it into the cache — the next request for the key
// recomputes. The serving layer uses it to keep degraded (deadline-cut)
// results out of the content-addressed tier: a timeout must not poison
// the entry a later, healthier request would otherwise be served from.
//
// A panicking compute unlinks its entry and releases its waiters with an
// error before the panic propagates, so the key is never left wedged.
func (c *Store[K, V]) DoCond(ctx context.Context, key K, compute func(ctx context.Context) (V, bool, error)) (val V, hit bool, err error) {
	var zero V
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			if e.elem != nil { // completed
				c.lru.MoveToFront(e.elem)
				c.mu.Unlock()
				c.hits.Add(1)
				return e.val, true, nil
			}
			c.mu.Unlock()
			c.dedups.Add(1)
			select {
			case <-e.done:
			case <-ctx.Done():
				return zero, false, ctx.Err()
			}
			if e.err != nil {
				// The computing request failed; its entry is already
				// unlinked. A cancellation is its deadline, not ours:
				// retry under our own context. Genuine compute errors
				// are shared, like singleflight.
				if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
					if err := ctx.Err(); err != nil {
						return zero, false, err
					}
					continue
				}
				return zero, true, e.err
			}
			return e.val, true, nil
		}
		e := &entry[K, V]{key: key, done: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()
		c.misses.Add(1)

		finished := false
		defer func() {
			if finished {
				return
			}
			// compute panicked: unlink the entry and release waiters
			// with an error before the panic propagates, so they retry
			// rather than deadlock on done.
			e.err = errPanicked
			c.mu.Lock()
			delete(c.entries, key)
			c.mu.Unlock()
			c.failures.Add(1)
			close(e.done)
		}()
		var store bool
		e.val, store, e.err = compute(ctx)
		finished = true

		c.mu.Lock()
		if e.err != nil {
			delete(c.entries, key)
			c.failures.Add(1)
		} else if !store {
			// The compute disowned its own value (degraded result):
			// deliver it to this caller and the joined waiters, but unlink
			// the entry so the next request recomputes.
			delete(c.entries, key)
			c.uncacheable.Add(1)
		} else {
			e.elem = c.lru.PushFront(e)
			for c.lru.Len() > c.cap {
				oldest := c.lru.Back()
				old := oldest.Value.(*entry[K, V])
				c.lru.Remove(oldest)
				delete(c.entries, old.key)
				c.evictions.Add(1)
			}
		}
		c.mu.Unlock()
		close(e.done)
		return e.val, false, e.err
	}
}

// Len returns the number of completed entries.
func (c *Store[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Hits counts requests served from a completed entry; Dedups counts
	// requests that joined an in-flight compute. Both avoided a compute.
	Hits, Dedups int64
	// Misses counts requests that ran the compute function — the
	// cache's "underlying core.Optimize calls" budget.
	Misses int64
	// Evictions counts completed entries dropped by the LRU bound;
	// Failures counts computes that errored (never cached).
	Evictions, Failures int64
	// Uncacheable counts successful computes that declined storage via
	// DoCond (degraded results the serving layer refuses to cache).
	Uncacheable int64
	// Entries is the current completed-entry count.
	Entries int
}

// Stats returns the current counters.
func (c *Store[K, V]) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Dedups:      c.dedups.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Failures:    c.failures.Load(),
		Uncacheable: c.uncacheable.Load(),
		Entries:     c.Len(),
	}
}
