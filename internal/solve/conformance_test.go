package solve_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/core"
	"multisite/internal/engine"
	"multisite/internal/solve"
)

// conformanceSOC is small enough (≤ 7 testable modules) that every
// backend — the Bell-number exact search included — solves it in
// milliseconds, yet rich enough (mixed logic and memory cores) to
// exercise grouping decisions.
func conformanceSOC() *benchdata.GenSpec {
	return &benchdata.GenSpec{
		Name: "conform", Seed: 42,
		LogicCores:  4,
		MemoryCores: 1,
		TargetArea:  128 * benchdata.Ki,
		Spread:      1.0,
		MaxChainLen: 128,
	}
}

func conformanceConfig() core.Config {
	return core.Config{
		ATE:   ate.ATE{Channels: 128, Depth: 36 * benchdata.Ki, ClockHz: 5e6},
		Probe: ate.DefaultProbeStation(),
	}
}

// TestSolverConformance is the registry-wide contract suite: every
// registered backend — current and future — must be deterministic across
// repeated runs, return promptly on a cancelled context without caching a
// partial design, and produce architectures that pass tam's Validate and
// fit the vector memory.
func TestSolverConformance(t *testing.T) {
	s := benchdata.Generate(*conformanceSOC())
	cfg := conformanceConfig()
	for _, name := range solve.Names() {
		sv, err := solve.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name+"/determinism", func(t *testing.T) {
			first, err := sv.Solve(context.Background(), s, cfg)
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			second, err := sv.Solve(context.Background(), s, cfg)
			if err != nil {
				t.Fatalf("repeat solve: %v", err)
			}
			a, err := first.Snapshot().MarshalBytes()
			if err != nil {
				t.Fatal(err)
			}
			b, err := second.Snapshot().MarshalBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("two runs serialize differently:\n%s\n%s", a, b)
			}
		})
		t.Run(name+"/feasibility", func(t *testing.T) {
			res, err := sv.Solve(context.Background(), s, cfg)
			if err != nil {
				t.Fatalf("solve: %v", err)
			}
			if err := res.Step1.Validate(); err != nil {
				t.Errorf("step 1 architecture invalid: %v", err)
			}
			if res.Step1.TestCycles() > cfg.ATE.Depth {
				t.Errorf("step 1 fill %d exceeds depth %d", res.Step1.TestCycles(), cfg.ATE.Depth)
			}
			if res.Step1.Channels() > cfg.ATE.Channels {
				t.Errorf("step 1 channels %d exceed the ATE's %d", res.Step1.Channels(), cfg.ATE.Channels)
			}
			curve, _ := res.ReEvaluate(res.Config)
			for n := 1; n <= res.MaxSites; n++ {
				arch := res.ArchAt(n)
				if err := arch.Validate(); err != nil {
					t.Errorf("n=%d architecture invalid: %v", n, err)
				}
				if arch.TestCycles() > cfg.ATE.Depth {
					t.Errorf("n=%d fill %d exceeds depth %d", n, arch.TestCycles(), cfg.ATE.Depth)
				}
				if e := curve[n-1]; e.Channels != arch.Channels() || e.TestCycles != arch.TestCycles() {
					t.Errorf("n=%d scored at %d channels and %d cycles, architecture has %d and %d",
						n, e.Channels, e.TestCycles, arch.Channels(), arch.TestCycles())
				}
			}
			if res.Best.Sites < 1 || res.Best.Sites > res.MaxSites {
				t.Errorf("no best operating point: %+v", res.Best)
			}
		})
		t.Run(name+"/cancellation", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := sv.Solve(ctx, s, cfg); err != context.Canceled {
				t.Errorf("cancelled solve returned %v, want context.Canceled", err)
			}
			// Through a memo, the cancellation must not poison the entry:
			// the next request recomputes and succeeds.
			memo := engine.NewMemo()
			if _, err := memo.DesignSolverCtx(ctx, name, s, cfg); err != context.Canceled {
				t.Fatalf("memoized cancelled solve returned %v", err)
			}
			res, err := memo.DesignSolverCtx(context.Background(), name, s, cfg)
			if err != nil || res == nil {
				t.Fatalf("recompute after cancellation failed: %v", err)
			}
			if _, misses := memo.Stats(); misses != 2 {
				t.Errorf("misses = %d, want 2: the cancelled design must not be cached", misses)
			}
		})
	}
}

// TestHeuristicMatchesCoreOptimize pins the delegation contract: the
// registry's default backend returns results byte-identical (serialized)
// to a direct core.Optimize call, so porting callers onto the registry
// can never shift a golden.
func TestHeuristicMatchesCoreOptimize(t *testing.T) {
	s := benchdata.Shared("d695")
	cfg := core.Config{
		ATE:   ate.ATE{Channels: 256, Depth: 64 * benchdata.Ki, ClockHz: 5e6},
		Probe: ate.DefaultProbeStation(),
	}
	direct, err := core.Optimize(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaRegistry, err := solve.Solve(context.Background(), "", s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := direct.Snapshot().MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	b, err := viaRegistry.Snapshot().MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("registry heuristic drifted from core.Optimize:\n%s\n%s", a, b)
	}
}

// TestExactBackendWiresMatchSolver checks the exact backend's realized
// architecture preserves the branch-and-bound's optimal wire count — the
// property the optimality-gap measurements rest on.
func TestExactBackendWiresMatchSolver(t *testing.T) {
	s := benchdata.Shared("d695")
	cfg := conformanceConfig()
	cfg.ATE.Channels = 256
	cfg.ATE.Depth = 64 * benchdata.Ki
	res, err := solve.Solve(context.Background(), "exact", s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	heur, err := solve.Solve(context.Background(), "heuristic", s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Step1.Wires() > heur.Step1.Wires() {
		t.Errorf("exact wires %d exceed heuristic wires %d — not an optimum",
			res.Step1.Wires(), heur.Step1.Wires())
	}
	if res.Step1.TestCycles() > heur.Step1.TestCycles() && res.Step1.Wires() == heur.Step1.Wires() {
		t.Errorf("at equal wires the exact fill %d exceeds the heuristic's %d",
			res.Step1.TestCycles(), heur.Step1.TestCycles())
	}
}

// TestRegistry covers the registry plumbing: lookup spellings, the
// unknown-name error listing valid names, and listing order.
func TestRegistry(t *testing.T) {
	names := solve.Names()
	if len(names) < 3 {
		t.Fatalf("want >= 3 registered solvers, got %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names not sorted: %v", names)
		}
	}
	def, err := solve.Get("")
	if err != nil || def.Name() != solve.DefaultName {
		t.Errorf(`Get("") = %v, %v; want the default backend`, def, err)
	}
	if _, err := solve.Get("simplex"); err == nil {
		t.Error("unknown solver did not error")
	} else {
		for _, name := range names {
			if !bytes.Contains([]byte(err.Error()), []byte(name)) {
				t.Errorf("unknown-solver error %q does not list %q", err, name)
			}
		}
	}
	infos := solve.Infos()
	if len(infos) != len(names) {
		t.Fatalf("Infos has %d entries, Names %d", len(infos), len(names))
	}
	for i, info := range infos {
		if info.Name != names[i] {
			t.Errorf("Infos[%d] = %s, want %s", i, info.Name, names[i])
		}
		if info.Description == "" || info.Complexity == "" {
			t.Errorf("%s: incomplete Info: %+v", info.Name, info)
		}
	}
}

// TestSolveUnknownName checks the convenience entry surfaces the registry
// error verbatim.
func TestSolveUnknownName(t *testing.T) {
	s := benchdata.Generate(*conformanceSOC())
	_, err := solve.Solve(context.Background(), "lp-relax", s, conformanceConfig())
	if err == nil {
		t.Fatal("want error for unknown solver")
	}
	if want := fmt.Sprintf("unknown solver %q", "lp-relax"); !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}
