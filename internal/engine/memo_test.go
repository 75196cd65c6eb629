package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/core"
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

// TestMemoBoundedResets checks the bounded memo caps its live designs:
// exceeding the bound resets the map, and designs recompute correctly
// afterwards.
func TestMemoBoundedResets(t *testing.T) {
	memo := NewMemoBounded(2)
	s := benchdata.Shared("d695")
	var results []*core.Result
	for i := 0; i < 5; i++ {
		cfg := memoConfig()
		cfg.ATE.Depth += int64(i) * benchdata.Ki // distinct design keys
		res, err := memo.DesignSolverCtx(context.Background(), "", s, cfg)
		if err != nil {
			t.Fatalf("depth variant %d: %v", i, err)
		}
		results = append(results, res)
		if n := memo.Len(); n > 2 {
			t.Fatalf("after insert %d: %d live designs, bound is 2", i, n)
		}
	}
	// A re-request after the resets recomputes but matches the original.
	cfg := memoConfig()
	res, err := memo.DesignSolverCtx(context.Background(), "", s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Step1.Channels() != results[0].Step1.Channels() ||
		res.Best != results[0].Best {
		t.Errorf("recomputed design differs: %+v vs %+v", res.Best, results[0].Best)
	}
}
