package wafersim

import (
	"math"
	"testing"

	"multisite/internal/multisite"
)

func params() multisite.Params {
	return multisite.Params{
		Sites: 8, Pins: 70,
		IndexTime: 0.65, ContactTime: 0.1, TestTime: 1.468,
		ContactYield: 1, Yield: 1,
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Params: params(), Touchdowns: 0}); err == nil {
		t.Error("zero touchdowns accepted")
	}
	p := params()
	p.Sites = 0
	if _, err := Run(Config{Params: p, Touchdowns: 10}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestDeterministicBySeed(t *testing.T) {
	cfg := Config{Params: params(), Touchdowns: 500, Seed: 7}
	cfg.Params.ContactYield = 0.999
	cfg.Params.Yield = 0.8
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Error("same seed produced different stats")
	}
	cfg.Seed = 8
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a == *c {
		t.Error("different seeds produced identical stats")
	}
}

func TestPerfectYieldMatchesAnalyticExactly(t *testing.T) {
	// With pc = pm = 1 there is no randomness: the empirical throughput
	// equals Eq. 4.5 to floating-point accuracy.
	cfg := Config{Params: params(), Touchdowns: 100, Seed: 1}
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	analytic := cfg.Params.Throughput()
	if relErr := (st.Throughput - analytic) / analytic; math.Abs(relErr) > 1e-12 {
		t.Errorf("deterministic case: sim %g vs analytic %g (rel %g)", st.Throughput, analytic, relErr)
	}
}

func TestMonteCarloMatchesAnalytic(t *testing.T) {
	// Random contact and manufacturing failures: the empirical
	// throughput converges to the model within ~1%.
	cfg := Config{Params: params(), Touchdowns: 30000, Seed: 42}
	cfg.Params.ContactYield = 0.999
	cfg.Params.Yield = 0.85
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	analytic := cfg.Params.Throughput()
	if relErr := (st.Throughput - analytic) / analytic; math.Abs(relErr) > 0.01 {
		t.Errorf("relative error %g exceeds 1%%", relErr)
	}
}

func TestMonteCarloAbortOnFail(t *testing.T) {
	// Abort-on-fail with low yield at n = 1 saves real time; the
	// empirical throughput must match the Eq. 4.4-based model.
	p := params()
	p.Sites = 1
	p.Yield = 0.6
	p.AbortOnFail = true
	cfg := Config{Params: p, Touchdowns: 40000, Seed: 11}
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	analytic := p.Throughput()
	if relErr := (st.Throughput - analytic) / analytic; math.Abs(relErr) > 0.01 {
		t.Errorf("abort-on-fail relative error %g exceeds 1%%", relErr)
	}
}

func TestAbortOnFailSavesTimeAtLowYield(t *testing.T) {
	p := params()
	p.Sites = 1
	p.Yield = 0.5
	base := Config{Params: p, Touchdowns: 20000, Seed: 3}
	full, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	p.AbortOnFail = true
	abort, err := Run(Config{Params: p, Touchdowns: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if abort.Throughput <= full.Throughput {
		t.Errorf("abort-on-fail throughput %g not above full %g",
			abort.Throughput, full.Throughput)
	}
}

func TestAbortOnFailWashesOutAtManySites(t *testing.T) {
	// The paper's multi-site claim: at n = 8 the abort saving is gone.
	p := params()
	p.Sites = 8
	p.Yield = 0.7
	full, err := Run(Config{Params: p, Touchdowns: 20000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p.AbortOnFail = true
	abort, err := Run(Config{Params: p, Touchdowns: 20000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rel := (abort.Throughput - full.Throughput) / full.Throughput
	if rel > 0.01 {
		t.Errorf("abort-on-fail still gains %.2f%% at n=8", 100*rel)
	}
}

func TestRetestQueueAccounting(t *testing.T) {
	p := params()
	p.ContactYield = 0.995 // painful with 70 pins: ~30% device contact failures
	p.Retest = true
	st, err := Run(Config{Params: p, Touchdowns: 30000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if st.Retests == 0 {
		t.Fatal("no re-tests recorded despite low contact yield")
	}
	if st.UniqueThroughput >= st.Throughput {
		t.Error("unique throughput not below raw throughput under re-test")
	}
	// Eq. 4.6: Du = Dth / (1 + (1 − pc^x)), within MC tolerance.
	want := p.UniqueThroughput()
	rel := (st.UniqueThroughput - want) / want
	if math.Abs(rel) > 0.02 {
		t.Errorf("unique throughput %g vs model %g (rel %g)", st.UniqueThroughput, want, rel)
	}
}

func TestNoRetestUniqueEqualsRaw(t *testing.T) {
	p := params()
	p.ContactYield = 0.995
	p.Retest = false
	st, err := Run(Config{Params: p, Touchdowns: 5000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.UniqueThroughput != st.Throughput {
		t.Error("without re-test, unique must equal raw")
	}
	if st.Retests != 0 {
		t.Errorf("re-tests recorded without policy: %d", st.Retests)
	}
}

func TestStatsConsistency(t *testing.T) {
	p := params()
	p.ContactYield = 0.999
	p.Yield = 0.9
	st, err := Run(Config{Params: p, Touchdowns: 1000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Devices != st.Touchdowns*p.Sites {
		t.Errorf("devices = %d, want %d", st.Devices, st.Touchdowns*p.Sites)
	}
	if st.ContactFails > st.Devices || st.ManufFails > st.Devices {
		t.Error("failure counts exceed device count")
	}
	if st.TotalHours <= 0 || st.MeanTestTime < 0 {
		t.Errorf("timing stats: hours %g, mean test %g", st.TotalHours, st.MeanTestTime)
	}
}
