package finaltest

import (
	"math"
	"testing"

	"multisite/internal/ate"
)

func config() Config {
	return Config{
		ATE:              ate.ATE{Channels: 512, Depth: 7 << 20, ClockHz: 5e6},
		PackagePins:      280,
		HandlerSites:     4,
		IndexTime:        1.2,
		ContactTime:      0.05,
		IOTestTime:       0.4,
		InternalTestTime: 1.468,
	}
}

func TestMaxSitesChannelLimited(t *testing.T) {
	c := config()
	c.HandlerSites = 0
	// 512 channels / 280 pins = 1 site: full-pin contact kills
	// parallelism — the paper's reason to test through E-RPCT at wafer.
	if got := c.MaxSites(); got != 1 {
		t.Errorf("MaxSites = %d, want 1", got)
	}
	c.PackagePins = 64
	if got := c.MaxSites(); got != 8 {
		t.Errorf("MaxSites = %d, want 8", got)
	}
}

func TestMaxSitesHandlerLimited(t *testing.T) {
	c := config()
	c.PackagePins = 32 // channels would allow 16
	if got := c.MaxSites(); got != 4 {
		t.Errorf("MaxSites = %d, want handler cap 4", got)
	}
}

func TestTestTimeComposition(t *testing.T) {
	c := config()
	if got := c.TestTime(); got != 0.4 {
		t.Errorf("IO-only test time = %g", got)
	}
	c.RetestInternal = true
	if got := c.TestTime(); math.Abs(got-1.868) > 1e-12 {
		t.Errorf("with internal re-test = %g, want 1.868", got)
	}
}

func TestThroughput(t *testing.T) {
	c := config()
	d := c.Throughput()
	n := c.MaxSites()
	want := 3600 * float64(n) / (c.IndexTime + c.ContactTime + c.IOTestTime)
	if math.Abs(d-want) > 1e-9 {
		t.Errorf("throughput = %g, want %g", d, want)
	}
	// Unhostable device.
	c.PackagePins = 10000
	c.HandlerSites = 0
	if got := c.Throughput(); got != 0 {
		t.Errorf("oversized package throughput = %g", got)
	}
}

func TestInternalRetestCostsThroughput(t *testing.T) {
	c := config()
	base := c.Throughput()
	c.RetestInternal = true
	if c.Throughput() >= base {
		t.Error("internal re-test should cost throughput")
	}
}

func TestParamsDefaultsYields(t *testing.T) {
	c := config()
	p := c.Params(2)
	if p.ContactYield != 1 || p.Yield != 1 {
		t.Errorf("yields default %g/%g, want 1/1", p.ContactYield, p.Yield)
	}
	if p.Pins != c.PackagePins || p.Sites != 2 {
		t.Errorf("params = %+v", p)
	}
}

func TestFlowBottleneck(t *testing.T) {
	f := Flow{
		Wafer: FlowStage{Name: "wafer", Sites: 8, Throughput: 13000},
		Final: FlowStage{Name: "final", Sites: 1, Throughput: 2100},
	}
	if f.Bottleneck().Name != "final" {
		t.Error("final test should bottleneck")
	}
	if got := f.Bottleneck().Throughput; got != 2100 {
		t.Errorf("flow capacity = %g", got)
	}
	// 13000/2100 = 6.19 → 7 final-test cells per wafer cell.
	if got := f.TestersForBalance(); got != 7 {
		t.Errorf("TestersForBalance = %d, want 7", got)
	}
}

func TestTestersForBalanceEdge(t *testing.T) {
	f := Flow{
		Wafer: FlowStage{Throughput: 1000},
		Final: FlowStage{Throughput: 1000},
	}
	if got := f.TestersForBalance(); got != 1 {
		t.Errorf("balanced flow needs %d, want 1", got)
	}
	f.Final.Throughput = 0
	if got := f.TestersForBalance(); got != 0 {
		t.Errorf("dead final stage: %d, want 0", got)
	}
}

func TestWaferAdvantage(t *testing.T) {
	// The flow asymmetry the paper's Section 3 describes: the E-RPCT
	// wafer stage out-parallelizes the all-pins final stage on the same
	// tester.
	c := config()
	c.HandlerSites = 0
	finalSites := c.MaxSites()
	waferSites := c.ATE.MaxSites(64) // k=64 E-RPCT channels at wafer
	if waferSites <= finalSites {
		t.Errorf("wafer sites %d not above final sites %d", waferSites, finalSites)
	}
}
