package econ

import (
	"math"
	"testing"
	"testing/quick"

	"multisite/internal/ate"
)

func TestHourlyCostKnownValue(t *testing.T) {
	c := TestCell{
		ATECapitalUSD: 876_000, ProberCapitalUSD: 0,
		DepreciationYears: 1, Utilization: 1, OperatingUSDPerHour: 10,
	}
	// 876,000 / 8760 hours = 100/h + 10/h operating.
	if got := c.HourlyCostUSD(); math.Abs(got-110) > 1e-9 {
		t.Errorf("hourly = %g, want 110", got)
	}
}

func TestUtilizationRaisesHourlyCost(t *testing.T) {
	full := DefaultCell()
	full.Utilization = 1
	half := DefaultCell()
	half.Utilization = 0.5
	if half.HourlyCostUSD() <= full.HourlyCostUSD() {
		t.Error("lower utilization must cost more per productive hour")
	}
}

func TestCostPerDevice(t *testing.T) {
	c := DefaultCell()
	perDev := c.CostPerDevice(13000)
	if perDev <= 0 {
		t.Fatalf("cost per device = %g", perDev)
	}
	// Mid-2000s digital test cost: cents per device, not dollars.
	if perDev > 0.25 {
		t.Errorf("cost per device %g USD implausibly high", perDev)
	}
	if got := c.CostPerDevice(0); got != 0 {
		t.Errorf("zero throughput should yield 0 sentinel, got %g", got)
	}
}

func TestCostPerDeviceInverseInThroughput(t *testing.T) {
	c := DefaultCell()
	if c.CostPerDevice(26000)*2 != c.CostPerDevice(13000) {
		t.Error("cost per device must be inversely proportional to throughput")
	}
}

func TestCellForATEScalesWithChannels(t *testing.T) {
	prices := ate.DefaultPriceModel()
	small := CellForATE(ate.ATE{Channels: 512, Depth: 7 << 20, ClockHz: 1}, prices)
	big := CellForATE(ate.ATE{Channels: 1024, Depth: 7 << 20, ClockHz: 1}, prices)
	if big.ATECapitalUSD <= small.ATECapitalUSD {
		t.Error("more channels must cost more")
	}
	// 512 extra channels at USD 500 each.
	if diff := big.ATECapitalUSD - small.ATECapitalUSD; math.Abs(diff-512*500) > 1e-6 {
		t.Errorf("channel premium = %g, want %g", diff, 512.0*500)
	}
}

func TestCellForATEDepthPremium(t *testing.T) {
	prices := ate.DefaultPriceModel()
	base := CellForATE(ate.ATE{Channels: 512, Depth: 7 << 20, ClockHz: 1}, prices)
	deep := CellForATE(ate.ATE{Channels: 512, Depth: 14 << 20, ClockHz: 1}, prices)
	if diff := deep.ATECapitalUSD - base.ATECapitalUSD; math.Abs(diff-48000) > 1e-6 {
		t.Errorf("depth premium = %g, want 48000 (the paper's quote)", diff)
	}
}

func TestCostCurve(t *testing.T) {
	c := DefaultCell()
	prev := math.Inf(1)
	for _, d := range []float64{1000, 2000, 4000} {
		cost := c.CostPerDevice(d)
		if cost >= prev {
			t.Error("cost must fall as throughput rises")
		}
		prev = cost
	}
}

func TestPropertyCostPositive(t *testing.T) {
	f := func(dRaw uint32) bool {
		d := 1 + float64(dRaw%1_000_000)
		c := DefaultCell()
		v := c.CostPerDevice(d)
		return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
