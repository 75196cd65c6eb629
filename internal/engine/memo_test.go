package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/core"
	"multisite/internal/soc"
	"multisite/internal/solve"
)

func memoConfig() core.Config {
	return core.Config{
		ATE:   ate.ATE{Channels: 256, Depth: 64 * benchdata.Ki, ClockHz: 5e6},
		Probe: ate.DefaultProbeStation(),
	}
}

// TestMemoSingleflight hammers one design key from 32 goroutines and
// checks the design was computed exactly once and every caller got the
// same shared result.
func TestMemoSingleflight(t *testing.T) {
	memo := NewMemo()
	s := benchdata.Shared("d695")
	const callers = 32
	results := make([]*core.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := memo.DesignSolverCtx(context.Background(), "", s, memoConfig())
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	requests, misses := memo.Stats()
	if requests != callers || misses != 1 {
		t.Errorf("stats = (%d requests, %d misses), want (%d, 1)", requests, misses, callers)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Errorf("caller %d got a different result instance", i)
		}
	}
}

// TestMemoCancelledComputeNotCached checks a cancelled design does not
// poison the memo: the next request recomputes and succeeds.
func TestMemoCancelledComputeNotCached(t *testing.T) {
	memo := NewMemo()
	s := benchdata.Shared("d695")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := memo.DesignSolverCtx(ctx, "", s, memoConfig()); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	res, err := memo.DesignSolverCtx(context.Background(), "", s, memoConfig())
	if err != nil || res == nil {
		t.Fatalf("recompute after cancellation failed: %v", err)
	}
	requests, misses := memo.Stats()
	if requests != 2 || misses != 2 {
		t.Errorf("stats = (%d, %d), want (2, 2): the cancelled design must not count as cached", requests, misses)
	}
}

// TestMemoWaiterCancellation checks a waiter with an expired context
// unblocks with its own error while the computation proceeds for others.
func TestMemoWaiterCancellation(t *testing.T) {
	memo := NewMemo()
	s := benchdata.Shared("pnx8550")
	cfg := memoConfig()
	cfg.ATE.Depth = 7 * benchdata.Mi
	cfg.ATE.Channels = 512

	started := make(chan struct{})
	go func() {
		close(started)
		if _, err := memo.DesignSolverCtx(context.Background(), "", s, cfg); err != nil {
			t.Errorf("computing caller failed: %v", err)
		}
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	// The waiter either beats the computation (joins it and gets the
	// result) or times out with its own error — never a shared
	// cancellation from someone else's context.
	if _, err := memo.DesignSolverCtx(ctx, "", s, cfg); err != nil && err != context.DeadlineExceeded {
		t.Errorf("waiter got foreign error: %v", err)
	}
	// The background design must still land and be reusable.
	if _, err := memo.DesignSolverCtx(context.Background(), "", s, cfg); err != nil {
		t.Errorf("design after waiter cancellation failed: %v", err)
	}
}

// TestMemoSolverDimension is the cache-key regression test for the solver
// dimension: before the solve registry, memo entries were keyed only on
// (SOC, ATE, TAM), so an "exact" design and a "heuristic" design for the
// same scenario would have aliased to one entry. Two backends on one
// scenario must produce two distinct cached designs, and a repeat request
// per backend must hit its own entry.
func TestMemoSolverDimension(t *testing.T) {
	memo := NewMemo()
	s := benchdata.Shared("d695")
	cfg := memoConfig()

	heur, err := memo.DesignSolverCtx(context.Background(), "heuristic", s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := memo.DesignSolverCtx(context.Background(), "exact", s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if heur == ex {
		t.Fatal("exact and heuristic designs aliased to one memo entry")
	}
	if heur.Step1.TestCycles() == ex.Step1.TestCycles() && heur.Step1.Wires() == ex.Step1.Wires() &&
		memo.Len() != 2 {
		t.Fatalf("memo holds %d designs, want 2 (one per solver)", memo.Len())
	}
	if _, misses := memo.Stats(); misses != 2 {
		t.Fatalf("misses = %d, want 2: each solver designs once", misses)
	}
	// Repeats hit the per-solver entries; the default-name spellings ""
	// and "heuristic" share one.
	for _, name := range []string{"", "heuristic", "exact"} {
		if _, err := memo.DesignSolverCtx(context.Background(), name, s, cfg); err != nil {
			t.Fatalf("repeat %q: %v", name, err)
		}
	}
	if _, misses := memo.Stats(); misses != 2 {
		t.Errorf("misses after repeats = %d, want 2 (all repeats cached)", misses)
	}
	// Unknown solvers error immediately and never occupy an entry.
	if _, err := memo.DesignSolverCtx(context.Background(), "simplex", s, cfg); err == nil {
		t.Error("unknown solver did not error")
	}
	if memo.Len() != 2 {
		t.Errorf("unknown solver changed the memo: %d entries", memo.Len())
	}
}

// TestMemoBoundedEvicts checks the memo caps its live designs at its
// LRU bound, and an evicted design recomputes identical to the original.
func TestMemoBoundedEvicts(t *testing.T) {
	memo := NewMemo()
	s := benchdata.Shared("d695")
	variant := func(i int) core.Config {
		cfg := memoConfig()
		cfg.ATE.Depth += int64(i) * benchdata.Ki // distinct design keys
		return cfg
	}
	const designs = memoCapacity + 16
	results := make([]*core.Result, designs)
	for i := range results {
		res, err := memo.DesignSolverCtx(context.Background(), "", s, variant(i))
		if err != nil {
			t.Fatalf("depth variant %d: %v", i, err)
		}
		results[i] = res
	}
	if n := memo.Len(); n > memoCapacity {
		t.Fatalf("%d live designs, bound is %d", n, memoCapacity)
	}
	// At least 16 designs were evicted; re-request from the oldest until
	// one recomputes, and check it matches the original.
	for i, want := range results {
		_, before := memo.Stats()
		res, err := memo.DesignSolverCtx(context.Background(), "", s, variant(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, after := memo.Stats(); after == before {
			continue // still cached
		}
		if res == want {
			t.Fatalf("variant %d recomputed but returned the cached instance", i)
		}
		if res.Step1.Channels() != want.Step1.Channels() || res.Best != want.Best {
			t.Errorf("recomputed design differs: %+v vs %+v", res.Best, want.Best)
		}
		return
	}
	t.Fatal("no evicted design recomputed")
}

// panicSolver is a backend whose every design panics.
type panicSolver struct{}

func (panicSolver) Name() string     { return "panics" }
func (panicSolver) Info() solve.Info { return solve.Info{} }
func (panicSolver) Solve(context.Context, *soc.SOC, core.Config) (*core.Result, error) {
	panic("design blew up")
}

// TestMemoPanicReleasesKey checks a panicking design does not wedge its
// key: two jobs sharing one design key each report the panic at once,
// and the memo caches nothing.
func TestMemoPanicReleasesKey(t *testing.T) {
	memo := NewMemo()
	memo.SetResolver(func(string) (solve.Solver, error) { return panicSolver{}, nil })
	cfg := memoConfig()
	jobs := []Job{
		{Name: "a", SOC: benchdata.Shared("d695"), Config: cfg},
		{Name: "b", SOC: benchdata.Shared("d695"), Config: cfg},
	}
	jobs[1].Config.ContactYield = 0.99 // same design key, other cost model
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	results, err := Run(ctx, jobs, Options{Workers: 1, Memo: memo})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, r := range results {
		want := fmt.Sprintf("engine: index %d: panic: design blew up", i)
		if r.Err == nil || r.Err.Error() != want {
			t.Errorf("job %d err = %v, want %q", i, r.Err, want)
		}
	}
	if n := memo.Len(); n != 0 {
		t.Errorf("memo holds %d designs after panics, want 0", n)
	}
}
