package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"multisite/internal/ate"
	"multisite/internal/tam"
)

func snapshotConfig() Config {
	return Config{
		ATE:   ate.ATE{Channels: 64, Depth: 16 << 10, ClockHz: 5e6},
		Probe: ate.DefaultProbeStation(),
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	res, err := Optimize(testSOC(), snapshotConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Snapshot()
	data, err := snap.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	back := new(Snapshot)
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	data2, err := back.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Errorf("marshal not byte-stable across a round trip:\n%s\n%s", data, data2)
	}
	if back.SOC != res.SOC.Name || back.SOCHash != res.SOC.Hash() {
		t.Errorf("identity fields drifted: %s/%s", back.SOC, back.SOCHash)
	}
	if back.Best != res.Best {
		t.Errorf("best drifted: %+v vs %+v", back.Best, res.Best)
	}
	if len(back.Curve) != res.MaxSites || len(back.Step1Curve) != res.MaxSites {
		t.Errorf("curve lengths drifted: %d/%d want %d",
			len(back.Curve), len(back.Step1Curve), res.MaxSites)
	}
}

// TestSnapshotArchesParse checks the embedded architectures round-trip
// through tam's textual format and match the live result.
func TestSnapshotArchesParse(t *testing.T) {
	s := testSOC()
	res, err := Optimize(s, snapshotConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Snapshot()
	step1, err := tam.ParseArchitectureString(snap.Step1Arch, s)
	if err != nil {
		t.Fatalf("step1 arch does not parse: %v", err)
	}
	if step1.Channels() != res.Step1.Channels() || step1.TestCycles() != res.Step1.TestCycles() {
		t.Errorf("step1 arch drifted: k=%d cycles=%d", step1.Channels(), step1.TestCycles())
	}
	best, err := tam.ParseArchitectureString(snap.BestArch, s)
	if err != nil {
		t.Fatalf("best arch does not parse: %v", err)
	}
	if best.Channels() != res.Best.Channels || best.TestCycles() != res.Best.TestCycles {
		t.Errorf("best arch drifted: k=%d cycles=%d want k=%d cycles=%d",
			best.Channels(), best.TestCycles(), res.Best.Channels, res.Best.TestCycles)
	}
}

// TestSnapshotUnder re-scores under a different cost model and checks the
// snapshot carries the re-scored values, not the design-time ones.
func TestSnapshotUnder(t *testing.T) {
	res, err := Optimize(testSOC(), snapshotConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := snapshotConfig()
	cfg.ContactYield = 0.97
	cfg.Retest = true
	curve, best := res.ReEvaluate(cfg)
	step1Curve := make([]SiteEval, res.MaxSites)
	for n := 1; n <= res.MaxSites; n++ {
		step1Curve[n-1] = cfg.EvaluateAt(res.Step1, n)
	}
	snap := res.SnapshotUnder(cfg, curve, step1Curve, best)
	if snap.Best != best {
		t.Errorf("best not re-scored: %+v vs %+v", snap.Best, best)
	}
	if !snap.Config.Retest || snap.Config.ContactYield != 0.97 {
		t.Errorf("config not echoed: %+v", snap.Config)
	}
	if want := CurveGain(step1Curve, curve, res.MaxSites); snap.Gain != want {
		t.Errorf("gain mismatch: %g vs %g", snap.Gain, want)
	}
}

func TestOptimizeCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OptimizeCtx(ctx, testSOC(), snapshotConfig()); err != context.Canceled {
		t.Errorf("want context.Canceled, got %v", err)
	}
}
