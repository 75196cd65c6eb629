package resilience_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/core"
	"multisite/internal/resilience"
	"multisite/internal/soc"
	"multisite/internal/solve"
)

// fakeClock is a manually-advanced Options.Clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newBreaker(opts resilience.Options) (*resilience.Breaker, *fakeClock) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	opts.Clock = clk.Now
	return resilience.NewBreaker("exact", opts), clk
}

// record drives one allowed call's outcome, failing the test if the
// breaker rejects.
func record(t *testing.T, b *resilience.Breaker, err error) {
	t.Helper()
	if aerr := b.Allow(); aerr != nil {
		t.Fatalf("Allow rejected unexpectedly: %v", aerr)
	}
	b.Record(err)
}

func TestConsecutiveDeadlinesTrip(t *testing.T) {
	b, _ := newBreaker(resilience.Options{ConsecutiveDeadlines: 3, Cooldown: time.Second})
	record(t, b, context.DeadlineExceeded)
	record(t, b, context.DeadlineExceeded)
	if err := b.Allow(); err != nil {
		t.Fatalf("tripped after 2 deadlines, want 3: %v", err)
	}
	b.Record(context.DeadlineExceeded)
	err := b.Allow()
	if err == nil {
		t.Fatal("not open after 3 consecutive deadlines")
	}
	if !errors.Is(err, resilience.ErrOpen) || !errors.Is(err, solve.ErrTransient) {
		t.Errorf("open error %v must match both ErrOpen and solve.ErrTransient", err)
	}
	var oe *resilience.OpenError
	if !errors.As(err, &oe) || oe.Backend != "exact" {
		t.Errorf("open error %v should carry the backend name", err)
	}
	if snap := b.Snapshot(); snap.State != resilience.Open || snap.Trips != 1 {
		t.Errorf("snapshot = %+v, want Open with 1 trip", snap)
	}
}

func TestSuccessResetsConsecutiveCount(t *testing.T) {
	b, _ := newBreaker(resilience.Options{ConsecutiveDeadlines: 3, Window: 64})
	for i := 0; i < 10; i++ {
		record(t, b, context.DeadlineExceeded)
		record(t, b, context.DeadlineExceeded)
		record(t, b, nil) // success breaks the run
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("breaker tripped despite no 3-run of deadlines: %v", err)
	}
}

func TestFailureRatioTrip(t *testing.T) {
	b, _ := newBreaker(resilience.Options{
		Window: 8, FailureRatio: 0.5, ConsecutiveDeadlines: -1,
	})
	// Alternate transient failures and successes: consecutive-deadline
	// never fires (disabled), but once the window fills at 50% failures
	// the ratio trips it.
	for i := 0; i < 7; i++ {
		if i%2 == 0 {
			record(t, b, fmt.Errorf("boom: %w", solve.ErrTransient))
		} else {
			record(t, b, nil)
		}
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("tripped before the window filled: %v", err)
	}
	b.Record(fmt.Errorf("boom: %w", solve.ErrTransient))
	if b.Allow() == nil {
		t.Fatal("window full at 50% failures: breaker should be open")
	}
}

func TestInputErrorsAreSuccesses(t *testing.T) {
	b, _ := newBreaker(resilience.Options{ConsecutiveDeadlines: 2, Window: 4, FailureRatio: 0.5})
	for i := 0; i < 20; i++ {
		record(t, b, errors.New("exact: SOC has 30 testable modules, max 12"))
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("permanent input errors tripped the breaker: %v", err)
	}
}

func TestClientCancellationIsNeutral(t *testing.T) {
	b, _ := newBreaker(resilience.Options{ConsecutiveDeadlines: 2, Window: 4, FailureRatio: 0.25})
	for i := 0; i < 20; i++ {
		record(t, b, context.Canceled)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("client cancellations tripped the breaker: %v", err)
	}
}

func TestHalfOpenProbeRecovers(t *testing.T) {
	b, clk := newBreaker(resilience.Options{ConsecutiveDeadlines: 2, Cooldown: time.Second})
	record(t, b, context.DeadlineExceeded)
	record(t, b, context.DeadlineExceeded)
	if b.Allow() == nil {
		t.Fatal("not open")
	}
	// Cooldown not elapsed: still rejecting.
	clk.Advance(999 * time.Millisecond)
	if b.Allow() == nil {
		t.Fatal("admitted a probe before the cooldown elapsed")
	}
	clk.Advance(2 * time.Millisecond)
	// First caller after cooldown becomes the probe...
	if err := b.Allow(); err != nil {
		t.Fatalf("cooldown elapsed, probe rejected: %v", err)
	}
	// ...and concurrent callers are still rejected while it runs.
	if b.Allow() == nil {
		t.Fatal("second concurrent probe admitted, want single-probe half-open")
	}
	b.Record(nil)
	if snap := b.Snapshot(); snap.State != resilience.Closed {
		t.Fatalf("successful probe: state = %v, want Closed", snap.State)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed breaker rejecting: %v", err)
	}
	b.Record(nil)
}

func TestHalfOpenProbeFailureReopens(t *testing.T) {
	b, clk := newBreaker(resilience.Options{ConsecutiveDeadlines: 2, Cooldown: time.Second})
	record(t, b, context.DeadlineExceeded)
	record(t, b, context.DeadlineExceeded)
	clk.Advance(1100 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	b.Record(context.DeadlineExceeded)
	if b.Allow() == nil {
		t.Fatal("failed probe: breaker should be open again")
	}
	if snap := b.Snapshot(); snap.Trips != 2 {
		t.Errorf("trips = %d, want 2 (initial + reopen)", snap.Trips)
	}
	// The reopened period honors a fresh cooldown.
	clk.Advance(1100 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("second cooldown elapsed, probe rejected: %v", err)
	}
	b.Record(nil)
	if snap := b.Snapshot(); snap.State != resilience.Closed {
		t.Errorf("recovered probe: state = %v, want Closed", snap.State)
	}
}

func TestSetLazyAndSorted(t *testing.T) {
	s := resilience.NewSet(resilience.Options{})
	if b1, b2 := s.For("exact"), s.For("exact"); b1 != b2 {
		t.Error("Set.For not memoized")
	}
	s.For("heuristic")
	s.For("baseline")
	snaps := s.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(snaps))
	}
	for i, want := range []string{"baseline", "exact", "heuristic"} {
		if snaps[i].Backend != want {
			t.Errorf("snapshot[%d] = %q, want %q (sorted)", i, snaps[i].Backend, want)
		}
	}
}

// failingSolver fails count times, then succeeds.
type failingSolver struct {
	inner solve.Solver
	mode  string // "deadline", "panic"
	left  int
	mu    sync.Mutex
}

func (f *failingSolver) Name() string     { return f.inner.Name() }
func (f *failingSolver) Info() solve.Info { return f.inner.Info() }

func (f *failingSolver) Solve(ctx context.Context, s *soc.SOC, cfg core.Config) (*core.Result, error) {
	f.mu.Lock()
	fail := f.left > 0
	if fail {
		f.left--
	}
	f.mu.Unlock()
	if fail {
		if f.mode == "panic" {
			panic("failingSolver")
		}
		return nil, context.DeadlineExceeded
	}
	return f.inner.Solve(ctx, s, cfg)
}

// TestWrapEndToEnd drives a wrapped backend through fail → open → reject
// → cooldown → probe → recover, on a real solve.
func TestWrapEndToEnd(t *testing.T) {
	inner, err := solve.Get("heuristic")
	if err != nil {
		t.Fatal(err)
	}
	fs := &failingSolver{inner: inner, mode: "deadline", left: 2}
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := resilience.NewBreaker("heuristic", resilience.Options{
		ConsecutiveDeadlines: 2, Cooldown: time.Second, Clock: clk.Now,
	})
	sv := resilience.Wrap(fs, b)

	s := benchdata.Generate(benchdata.PropSpec(42))
	cfg := core.Config{ATE: benchdata.PropATE(42), Probe: ate.DefaultProbeStation()}
	for i := 0; i < 2; i++ {
		if _, err := sv.Solve(context.Background(), s, cfg); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: err = %v, want DeadlineExceeded", i, err)
		}
	}
	// Open: rejected without reaching the backend (which would now succeed).
	if _, err := sv.Solve(context.Background(), s, cfg); !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("open breaker: err = %v, want ErrOpen", err)
	}
	clk.Advance(1100 * time.Millisecond)
	res, err := sv.Solve(context.Background(), s, cfg)
	if err != nil {
		t.Fatalf("probe after cooldown: %v", err)
	}
	if res == nil || res.Step1 == nil {
		t.Fatal("probe succeeded but returned no result")
	}
	if snap := b.Snapshot(); snap.State != resilience.Closed {
		t.Errorf("state after successful probe = %v, want Closed", snap.State)
	}
}

// TestWrapPanicIsTransientFailure: a panicking backend surfaces as a
// transient error (never a crash, never cacheable) and counts against
// the breaker.
func TestWrapPanicIsTransientFailure(t *testing.T) {
	inner, _ := solve.Get("heuristic")
	fs := &failingSolver{inner: inner, mode: "panic", left: 100}
	b := resilience.NewBreaker("heuristic", resilience.Options{
		Window: 4, FailureRatio: 0.5, ConsecutiveDeadlines: -1,
	})
	sv := resilience.Wrap(fs, b)
	s := benchdata.Generate(benchdata.PropSpec(42))
	cfg := core.Config{ATE: benchdata.PropATE(42), Probe: ate.DefaultProbeStation()}
	var err error
	for i := 0; i < 4; i++ {
		_, err = sv.Solve(context.Background(), s, cfg)
		if !errors.Is(err, solve.ErrTransient) {
			t.Fatalf("call %d: err = %v, want transient from recovered panic", i, err)
		}
	}
	if _, err := sv.Solve(context.Background(), s, cfg); !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("panic-ratio full window: err = %v, want ErrOpen", err)
	}
}

// TestWrapPreservesAnytime: the wrapper is anytime over every backend —
// heuristic, exact and baseline each tighten a shared incumbent through
// it, which the portfolio's incumbent sharing rests on.
func TestWrapPreservesAnytime(t *testing.T) {
	s := benchdata.Generate(benchdata.PropSpec(42))
	cfg := core.Config{ATE: benchdata.PropATE(42), Probe: ate.DefaultProbeStation()}
	for _, name := range []string{"heuristic", "exact", "baseline"} {
		inner, err := solve.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		w := resilience.Wrap(inner, resilience.NewBreaker(name, resilience.Options{}))
		inc := &solve.Incumbent{}
		res, err := w.SolveAnytime(context.Background(), s, cfg, inc, nil)
		if err != nil {
			t.Fatalf("%s wrapped SolveAnytime: %v", name, err)
		}
		if got, want := inc.Bound(), res.Step1.Wires(); got != want {
			t.Errorf("%s: incumbent bound %d through the wrapper, want the design's %d wires", name, got, want)
		}
	}
}
