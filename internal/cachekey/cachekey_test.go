package cachekey

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"multisite/internal/ate"
	"multisite/internal/core"
	"multisite/internal/tam"
)

func testCfg() core.Config {
	return core.Config{ATE: ate.ATE{Channels: 256, Depth: 64 << 10, ClockHz: 5e6},
		Probe: ate.DefaultProbeStation()}
}

// TestScenarioPinned pins the key derivation bytes: gateway routing,
// the in-memory cache, and the on-disk CAS all address results by this
// exact string. Changing the derivation invalidates every fleet's disk
// tier at once — this pin makes that a reviewed decision, not a drift.
func TestScenarioPinned(t *testing.T) {
	const want = "f57643730ceb0868d7274ad11168a0961a14db51e6d5a8ae14526ffe6167974d"
	if got := Scenario("sochash", "heuristic", testCfg()); got != want {
		t.Fatalf("Scenario = %s, want pinned %s", got, want)
	}
}

func TestScenarioNormalizes(t *testing.T) {
	cfg := testCfg()
	a := Scenario("h", "heuristic", cfg)
	cfg.ContactYield, cfg.Yield = 1, 1 // the normalized defaults
	if b := Scenario("h", "heuristic", cfg); a != b {
		t.Fatalf("zero and normalized yields keyed differently: %s vs %s", a, b)
	}
}

func TestScenarioDimensions(t *testing.T) {
	base := Scenario("h", "heuristic", testCfg())
	if Scenario("h2", "heuristic", testCfg()) == base {
		t.Error("soc hash is not a key dimension")
	}
	if Scenario("h", "exact", testCfg()) == base {
		t.Error("solver is not a key dimension")
	}
	cfg := testCfg()
	cfg.ATE.Depth++
	if Scenario("h", "heuristic", cfg) == base {
		t.Error("depth is not a key dimension")
	}
	if RouteCompare("h", testCfg()) == base {
		t.Error("compare routing key aliases the heuristic scenario key")
	}
}

// TestScenarioMatchesFmt pins the appended key bytes to the fmt
// rendering in reference_test.go over seeded configurations. Floats
// are drawn from the values whose shortest form is unusual (NaN, ±Inf,
// −0, subnormals, extremes) as well as ordinary ones; integers include
// both extremes of their type, negative control pins (normalized to the
// default) and every option rule.
func TestScenarioMatchesFmt(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1, 0.999, 0.9995, 1e-300, 5e-324, math.MaxFloat64, -math.MaxFloat64, 5e6, 0.65, 1.0 / 3}
	ints := []int64{0, 1, -1, 256, math.MaxInt64, math.MinInt64, math.MaxInt32, -10}
	rules := []tam.OptionRule{tam.RuleMaxFreeMemory, tam.RuleAlwaysNewGroup, tam.RulePreferWiden,
		-1, 99}
	rng := rand.New(rand.NewSource(1))
	float := func() float64 {
		if rng.Intn(2) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return math.Float64frombits(rng.Uint64())
	}
	integer := func() int64 {
		if rng.Intn(2) == 0 {
			return ints[rng.Intn(len(ints))]
		}
		return rng.Int63() - rng.Int63()
	}
	solvers := []string{"heuristic", "exact", "compare", ""}
	const configs = 12000
	for i := range configs {
		cfg := core.Config{
			ATE: ate.ATE{Channels: int(integer()), Depth: integer(), ClockHz: float(),
				Broadcast: rng.Intn(2) == 0},
			Probe:        ate.ProbeStation{IndexTime: float(), ContactTime: float()},
			ContactYield: float(),
			Yield:        float(),
			AbortOnFail:  rng.Intn(2) == 0,
			Retest:       rng.Intn(2) == 0,
			ControlPins:  int(integer()),
			TAM: tam.Options{Rule: rules[i%len(rules)], MaxWires: int(integer()),
				NoSqueeze: rng.Intn(2) == 0, SinglePass: rng.Intn(2) == 0},
		}
		if i%100 == 0 {
			cfg.ATE.Depth = math.MaxInt64
		}
		hash := strconv.FormatUint(rng.Uint64(), 16)
		solver := solvers[rng.Intn(len(solvers))]
		if got, want := Scenario(hash, solver, cfg), referenceScenario(hash, solver, cfg); got != want {
			t.Fatalf("config %d %+v: Scenario = %s, fmt rendering %s", i, cfg, got, want)
		}
	}
}
