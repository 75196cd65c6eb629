package exact

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/soc"
	"multisite/internal/tam"
)

func target(channels int, depth int64) ate.ATE {
	return ate.ATE{Channels: channels, Depth: depth, ClockHz: 5e6}
}

func TestSolveTinySOC(t *testing.T) {
	// Two identical modules, each exactly filling the depth at width 1:
	// the optimum is two width-1 groups (2 wires), not one width-2
	// group (the pair at width 2 would not fit one depth).
	m := soc.Module{Inputs: 1, Outputs: 1, Patterns: 100,
		ScanChains: soc.ChainsOfLengths(9)}
	m1, m2 := m, m
	m1.ID, m2.ID = 1, 2
	s := &soc.SOC{Name: "twins", Modules: []soc.Module{m1, m2}}
	// T(1) = (1+10)*100 + 10 = 1110. Depth 1200 fits one but not two.
	sol, err := Solve(context.Background(), s, target(64, 1200), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Wires != 2 || len(sol.Blocks) != 2 {
		t.Errorf("wires=%d blocks=%d, want 2 separate width-1 groups", sol.Wires, len(sol.Blocks))
	}
	// A deep memory merges them onto one wire.
	sol2, err := Solve(context.Background(), s, target(64, 3000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Wires != 1 || len(sol2.Blocks) != 1 {
		t.Errorf("deep: wires=%d blocks=%d, want 1 shared wire", sol2.Wires, len(sol2.Blocks))
	}
}

func TestSolveRespectsDepth(t *testing.T) {
	s := benchdata.Shared("d695")
	sol, err := Solve(context.Background(), s, target(256, 64*1024), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.TestCycles > 64*1024 {
		t.Errorf("optimal solution exceeds depth: %d", sol.TestCycles)
	}
	// Every testable module appears in exactly one block.
	seen := map[int]int{}
	for _, blk := range sol.Blocks {
		for _, mi := range blk {
			seen[mi]++
		}
	}
	for _, mi := range s.TestableModules() {
		if seen[mi] != 1 {
			t.Errorf("module %d appears %d times", mi, seen[mi])
		}
	}
}

func TestHeuristicMatchesExactOnD695(t *testing.T) {
	// The headline validation: at the paper's Table 1 depths, Step 1's
	// channel count equals the provable optimum for d695.
	s := benchdata.Shared("d695")
	for _, depthK := range []int64{48, 64, 96, 128} {
		tg := target(256, depthK*1024)
		sol, err := Solve(context.Background(), s, tg, Options{})
		if err != nil {
			t.Fatalf("D=%dK: %v", depthK, err)
		}
		arch, err := tam.DesignStep1(s, tg)
		if err != nil {
			t.Fatalf("D=%dK: %v", depthK, err)
		}
		if gap := Gap(arch.Wires(), sol); gap != 0 {
			t.Errorf("D=%dK: heuristic %d wires vs optimal %d (gap %d)",
				depthK, arch.Wires(), sol.Wires, gap)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	s := benchdata.Shared("d695")
	if _, err := Solve(context.Background(), s, target(256, 10), Options{}); err == nil {
		t.Error("infeasible depth accepted")
	}
	if _, err := Solve(context.Background(), s, ate.ATE{}, Options{}); err == nil {
		t.Error("invalid ATE accepted")
	}
	big := benchdata.Shared("p22810") // 28 testable modules
	if _, err := Solve(context.Background(), big, target(512, benchdata.Mi), Options{}); err == nil {
		t.Error("oversized SOC accepted by exact search")
	}
	empty := &soc.SOC{Name: "e", Modules: []soc.Module{{ID: 0}}}
	if _, err := Solve(context.Background(), empty, target(64, 1000), Options{}); err == nil {
		t.Error("empty SOC accepted")
	}
}

func TestSolveTooManyChannelsNeeded(t *testing.T) {
	s := &soc.SOC{Name: "w", Modules: []soc.Module{
		{ID: 1, Inputs: 100, Outputs: 100, Patterns: 1000,
			ScanChains: soc.UniformChains(16, 200)},
	}}
	if _, err := Solve(context.Background(), s, target(2, 2000), Options{}); err == nil {
		t.Error("1-wire budget accepted for a huge module")
	}
}

func TestPropertyHeuristicNeverBeatsExact(t *testing.T) {
	// The exact solver must lower-bound the heuristic on random small
	// SOCs — and the heuristic should usually be optimal.
	optimal, total := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		s := &soc.SOC{Name: "prop"}
		for i := 0; i < n; i++ {
			m := soc.Module{
				ID: i + 1, Inputs: 1 + rng.Intn(30), Outputs: rng.Intn(30),
				Patterns: 1 + rng.Intn(60),
			}
			for c := rng.Intn(4); c > 0; c-- {
				m.ScanChains = append(m.ScanChains, soc.ScanChain{Length: 1 + rng.Intn(40)})
			}
			s.Modules = append(s.Modules, m)
		}
		depth := int64(1500 + rng.Intn(30000))
		tg := target(64, depth)
		sol, errE := Solve(context.Background(), s, tg, Options{})
		arch, errH := tam.DesignStep1(s, tg)
		if (errE == nil) != (errH == nil) {
			// The exact solver proves feasibility; the heuristic
			// may fail on feasible instances but must not
			// succeed on infeasible ones.
			if errE != nil && errH == nil {
				t.Logf("seed %d: heuristic solved an instance exact search calls infeasible", seed)
				return false
			}
			return true
		}
		if errE != nil {
			return true
		}
		total++
		if arch.Wires() < sol.Wires {
			t.Logf("seed %d: heuristic %d wires beats 'optimal' %d", seed, arch.Wires(), sol.Wires)
			return false
		}
		if arch.Wires() == sol.Wires {
			optimal++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	if total > 0 && optimal*10 < total*8 {
		t.Errorf("heuristic optimal on only %d of %d random instances", optimal, total)
	}
}
