package ate

import (
	"testing"
	"testing/quick"
)

func TestATEValidate(t *testing.T) {
	good := ATE{Channels: 64, Depth: 1000, ClockHz: 1e6}
	if err := good.Validate(); err != nil {
		t.Errorf("valid ATE rejected: %v", err)
	}
	bad := []ATE{
		{Channels: 1, Depth: 1000, ClockHz: 1e6},
		{Channels: 64, Depth: 0, ClockHz: 1e6},
		{Channels: 64, Depth: 1000, ClockHz: 0},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("bad ATE %d accepted", i)
		}
	}
}

func TestMaxSitesNoBroadcast(t *testing.T) {
	a := ATE{Channels: 512, Depth: 1, ClockHz: 1}
	cases := []struct{ k, want int }{
		{64, 8}, {60, 8}, {72, 7}, {512, 1}, {514, 0}, {0, 0},
	}
	for _, c := range cases {
		if got := a.MaxSites(c.k); got != c.want {
			t.Errorf("MaxSites(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestMaxSitesBroadcast(t *testing.T) {
	// Paper Table 1 cross-check with N = 256: k=28 → 17, k=12 → 41.
	a := ATE{Channels: 256, Depth: 1, ClockHz: 1, Broadcast: true}
	cases := []struct{ k, want int }{
		{28, 17}, {24, 20}, {22, 22}, {20, 24}, {18, 27},
		{16, 31}, {14, 35}, {12, 41},
	}
	for _, c := range cases {
		if got := a.MaxSites(c.k); got != c.want {
			t.Errorf("broadcast MaxSites(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestMaxWiresPerSiteInvertsMaxSites(t *testing.T) {
	// Using the wire budget for n sites must indeed allow n sites.
	f := func(nRaw uint8, chRaw uint16, broadcast bool) bool {
		n := 1 + int(nRaw)%32
		channels := 2 + int(chRaw)%2048
		a := ATE{Channels: channels, Depth: 1, ClockHz: 1, Broadcast: broadcast}
		w := a.MaxWiresPerSite(n)
		if w == 0 {
			return true // too many sites for this tester
		}
		return a.MaxSites(2*w) >= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxWiresPerSiteEdge(t *testing.T) {
	a := ATE{Channels: 512, Depth: 1, ClockHz: 1}
	if got := a.MaxWiresPerSite(0); got != 0 {
		t.Errorf("MaxWiresPerSite(0) = %d", got)
	}
	if got := a.MaxWiresPerSite(1); got != 256 {
		t.Errorf("MaxWiresPerSite(1) = %d, want 256", got)
	}
	b := a
	b.Broadcast = true
	if got := b.MaxWiresPerSite(1); got != 256 {
		t.Errorf("broadcast MaxWiresPerSite(1) = %d, want 256", got)
	}
	if got := b.MaxWiresPerSite(3); got != 128 {
		t.Errorf("broadcast MaxWiresPerSite(3) = %d, want 128", got)
	}
}

func TestSecondsCyclesRoundTrip(t *testing.T) {
	a := ATE{Channels: 2, Depth: 1, ClockHz: 5e6}
	if got := a.SecondsFor(5_000_000); got != 1.0 {
		t.Errorf("SecondsFor = %g", got)
	}
}

func TestProbeStationValidate(t *testing.T) {
	if err := DefaultProbeStation().Validate(); err != nil {
		t.Errorf("default probe station invalid: %v", err)
	}
	if err := (ProbeStation{IndexTime: -1}).Validate(); err == nil {
		t.Error("negative index time accepted")
	}
}

func TestPriceModel(t *testing.T) {
	p := DefaultPriceModel()
	a := ATE{Channels: 512, Depth: 7, ClockHz: 1}
	// 512 channels = 32 blocks of 16 at USD 1,500 each.
	if got := p.DoubleDepthCostUSD(a); got != 48000 {
		t.Errorf("DoubleDepthCostUSD = %g, want 48000", got)
	}
	// USD 48,000 at USD 500/channel buys 96 channels.
	if got := p.ChannelsForBudgetUSD(48000); got != 96 {
		t.Errorf("ChannelsForBudgetUSD = %d, want 96", got)
	}
}
