package faultinject_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/core"
	"multisite/internal/faultinject"
	"multisite/internal/solve"
)

func heuristic(t *testing.T) solve.Solver {
	t.Helper()
	sv, err := solve.Get("heuristic")
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

func TestParsePlanRoundTrip(t *testing.T) {
	for _, src := range []string{
		"pass",
		"error",
		"delay:50ms,error,pass,repeat",
		"hang,repeat",
		"panic",
	} {
		p, err := faultinject.ParsePlan(src)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", src, err)
		}
		if got := p.String(); got != src {
			t.Errorf("ParsePlan(%q).String() = %q", src, got)
		}
	}
	for _, bad := range []string{"", "explode", "delay", "delay:", "delay:-1s", "repeat", "repeat,error", "error,,pass"} {
		if _, err := faultinject.ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestScheduleOrderAndExhaustion(t *testing.T) {
	s := benchdata.Generate(benchdata.PropSpec(42))
	cfg := core.Config{ATE: benchdata.PropATE(42), Probe: ate.DefaultProbeStation()}
	plan, err := faultinject.ParsePlan("error,pass,error")
	if err != nil {
		t.Fatal(err)
	}
	sv := faultinject.Wrap(heuristic(t), plan)
	wantErr := []bool{true, false, true, false, false} // past the end → pass
	for i, want := range wantErr {
		_, err := sv.Solve(context.Background(), s, cfg)
		if got := err != nil; got != want {
			t.Fatalf("call %d: err=%v, want error=%v", i, err, want)
		}
		if err != nil && !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("call %d: err=%v, want ErrInjected", i, err)
		}
	}
}

func TestRepeatCycles(t *testing.T) {
	s := benchdata.Generate(benchdata.PropSpec(42))
	cfg := core.Config{ATE: benchdata.PropATE(42), Probe: ate.DefaultProbeStation()}
	plan, _ := faultinject.ParsePlan("error,pass,repeat")
	sv := faultinject.Wrap(heuristic(t), plan)
	for i := 0; i < 6; i++ {
		_, err := sv.Solve(context.Background(), s, cfg)
		if wantErr := i%2 == 0; (err != nil) != wantErr {
			t.Fatalf("call %d: err=%v, want error=%v", i, err, wantErr)
		}
	}
}

func TestInjectedErrorIsTransient(t *testing.T) {
	if !errors.Is(faultinject.ErrInjected, solve.ErrTransient) {
		t.Fatal("ErrInjected must match solve.ErrTransient so caches refuse it")
	}
}

func TestHangHonorsContext(t *testing.T) {
	s := benchdata.Generate(benchdata.PropSpec(42))
	cfg := core.Config{ATE: benchdata.PropATE(42), Probe: ate.DefaultProbeStation()}
	plan, _ := faultinject.ParsePlan("hang,repeat")
	sv := faultinject.Wrap(heuristic(t), plan)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := sv.Solve(ctx, s, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang: err = %v, want DeadlineExceeded", err)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("hang outlived its context by %v", e)
	}
}

func TestDelayIsContextAware(t *testing.T) {
	s := benchdata.Generate(benchdata.PropSpec(42))
	cfg := core.Config{ATE: benchdata.PropATE(42), Probe: ate.DefaultProbeStation()}
	plan, _ := faultinject.ParsePlan("delay:10s")
	sv := faultinject.Wrap(heuristic(t), plan)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := sv.Solve(ctx, s, cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("delay under short ctx: err = %v, want DeadlineExceeded", err)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("delay ignored cancellation, took %v", e)
	}
}

func TestPanicMode(t *testing.T) {
	s := benchdata.Generate(benchdata.PropSpec(42))
	cfg := core.Config{ATE: benchdata.PropATE(42), Probe: ate.DefaultProbeStation()}
	plan, _ := faultinject.ParsePlan("panic")
	sv := faultinject.Wrap(heuristic(t), plan)
	defer func() {
		if recover() == nil {
			t.Error("panic mode did not panic")
		}
	}()
	sv.Solve(context.Background(), s, cfg)
}

// TestWrapPreservesAnytime: pass steps keep every backend anytime —
// heuristic, exact and baseline each tighten a shared incumbent through
// the injection wrapper.
func TestWrapPreservesAnytime(t *testing.T) {
	s := benchdata.Generate(benchdata.PropSpec(42))
	cfg := core.Config{ATE: benchdata.PropATE(42), Probe: ate.DefaultProbeStation()}
	plan, _ := faultinject.ParsePlan("pass,repeat")
	for _, name := range []string{"heuristic", "exact", "baseline"} {
		inner, err := solve.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		inc := &solve.Incumbent{}
		res, err := faultinject.Wrap(inner, plan).SolveAnytime(context.Background(), s, cfg, inc, nil)
		if err != nil {
			t.Fatalf("%s wrapped SolveAnytime: %v", name, err)
		}
		if got, want := inc.Bound(), res.Step1.Wires(); got != want {
			t.Errorf("%s: incumbent bound %d through the injection wrapper, want the design's %d wires", name, got, want)
		}
	}
}

func TestNilPlanPasses(t *testing.T) {
	s := benchdata.Generate(benchdata.PropSpec(42))
	cfg := core.Config{ATE: benchdata.PropATE(42), Probe: ate.DefaultProbeStation()}
	sv := faultinject.Wrap(heuristic(t), nil)
	if _, err := sv.Solve(context.Background(), s, cfg); err != nil {
		t.Fatalf("nil plan: %v", err)
	}
}
