package baseline

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/pareto"
	"multisite/internal/soc"
	"multisite/internal/wrapper"
)

func target(channels int, depth int64) ate.ATE {
	return ate.ATE{Channels: channels, Depth: depth, ClockHz: 5e6, Broadcast: true}
}

func TestDesignD695(t *testing.T) {
	s := benchdata.Shared("d695")
	cases := []struct {
		depthK int64
		wantK  int // the paper's [7] column, which our packer matches
	}{
		{48, 28}, {64, 22}, {80, 18}, {96, 14}, {112, 12}, {128, 12},
	}
	for _, c := range cases {
		pk, err := Design(context.Background(), s, target(256, c.depthK*1024))
		if err != nil {
			t.Fatalf("D=%dK: %v", c.depthK, err)
		}
		if err := pk.Validate(); err != nil {
			t.Fatalf("D=%dK: invalid packing: %v", c.depthK, err)
		}
		if pk.Channels() != c.wantK {
			t.Errorf("D=%dK: k = %d, want %d", c.depthK, pk.Channels(), c.wantK)
		}
	}
}

func TestPackingAtLeastLowerBound(t *testing.T) {
	s := benchdata.Shared("d695")
	for _, depthK := range []int64{48, 72, 104} {
		tg := target(256, depthK*1024)
		lb, ok := LowerBoundChannels(s, tg)
		if !ok {
			t.Fatalf("LB infeasible at %dK", depthK)
		}
		pk, err := Design(context.Background(), s, tg)
		if err != nil {
			t.Fatal(err)
		}
		if pk.Channels() < lb {
			t.Errorf("D=%dK: packing k=%d below LB %d", depthK, pk.Channels(), lb)
		}
	}
}

func TestPackingMakespanWithinDepth(t *testing.T) {
	s := benchdata.Shared("d695")
	pk, err := Design(context.Background(), s, target(256, 64*1024))
	if err != nil {
		t.Fatal(err)
	}
	if pk.TestCycles() > pk.Depth {
		t.Errorf("makespan %d exceeds depth %d", pk.TestCycles(), pk.Depth)
	}
}

func TestDesignInfeasible(t *testing.T) {
	s := benchdata.Shared("d695")
	if _, err := Design(context.Background(), s, target(256, 100)); err == nil {
		t.Error("tiny depth accepted")
	}
	if _, err := Design(context.Background(), s, target(4, 48*1024)); err == nil {
		t.Error("4-channel ATE accepted")
	}
	if _, err := Design(context.Background(), s, ate.ATE{}); err == nil {
		t.Error("zero ATE accepted")
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	s := benchdata.Shared("d695")
	pk, err := Design(context.Background(), s, target(256, 64*1024))
	if err != nil {
		t.Fatal(err)
	}
	// Force two placements onto the same cells.
	bad := *pk
	bad.Placements = append([]Placement(nil), pk.Placements...)
	bad.Placements[1] = bad.Placements[0]
	if err := bad.Validate(); err == nil {
		t.Error("overlapping/duplicate placements accepted")
	}
}

func TestValidateCatchesOutOfBin(t *testing.T) {
	s := benchdata.Shared("d695")
	pk, err := Design(context.Background(), s, target(256, 64*1024))
	if err != nil {
		t.Fatal(err)
	}
	bad := *pk
	bad.Placements = append([]Placement(nil), pk.Placements...)
	bad.Placements[0].Start = bad.Depth // off the end
	if err := bad.Validate(); err == nil {
		t.Error("out-of-bin placement accepted")
	}
}

func TestValidateCatchesWrongTime(t *testing.T) {
	s := benchdata.Shared("d695")
	pk, err := Design(context.Background(), s, target(256, 64*1024))
	if err != nil {
		t.Fatal(err)
	}
	bad := *pk
	bad.Placements = append([]Placement(nil), pk.Placements...)
	bad.Placements[0].Time++
	if err := bad.Validate(); err == nil {
		t.Error("fabricated test time accepted")
	}
}

func TestPropertyPackingValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		s := &soc.SOC{Name: "prop"}
		for i := 0; i < n; i++ {
			m := soc.Module{
				ID: i + 1, Inputs: 1 + rng.Intn(40), Outputs: rng.Intn(40),
				Patterns: 1 + rng.Intn(60),
			}
			for c := rng.Intn(4); c > 0; c-- {
				m.ScanChains = append(m.ScanChains, soc.ScanChain{Length: 1 + rng.Intn(50)})
			}
			s.Modules = append(s.Modules, m)
		}
		depth := int64(3000 + rng.Intn(60000))
		pk, err := Design(context.Background(), s, ate.ATE{Channels: 128, Depth: depth, ClockHz: 1e6})
		if err != nil {
			return true // infeasibility is acceptable
		}
		if err := pk.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		d := wrapper.For(s)
		lb, _ := pareto.LowerBoundWires(d, depth, 64)
		return pk.Wires >= lb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCycles returns the packing's makespan: the highest occupied row.
func (p *Packing) TestCycles() int64 {
	var n int64
	for _, pl := range p.Placements {
		if end := pl.Start + pl.Time; end > n {
			n = end
		}
	}
	return n
}

// Validate checks that placements stay inside the bin, do not overlap, and
// use genuine wrapper test times.
func (p *Packing) Validate() error {
	d := wrapper.For(p.SOC)
	seen := make(map[int]bool)
	for i, pl := range p.Placements {
		if pl.Wire < 0 || pl.Wire+pl.Width > p.Wires {
			return fmt.Errorf("placement %d: wires [%d,%d) outside bin width %d",
				i, pl.Wire, pl.Wire+pl.Width, p.Wires)
		}
		if pl.Start < 0 || pl.Start+pl.Time > p.Depth {
			return fmt.Errorf("placement %d: cycles [%d,%d) outside depth %d",
				i, pl.Start, pl.Start+pl.Time, p.Depth)
		}
		if want := d.Time(pl.Module, pl.Width); pl.Time != want {
			return fmt.Errorf("placement %d: time %d != wrapper time %d at width %d",
				i, pl.Time, want, pl.Width)
		}
		if seen[pl.Module] {
			return fmt.Errorf("module %d placed twice", pl.Module)
		}
		seen[pl.Module] = true
		for j := 0; j < i; j++ {
			o := p.Placements[j]
			if pl.Wire < o.Wire+o.Width && o.Wire < pl.Wire+pl.Width &&
				pl.Start < o.Start+o.Time && o.Start < pl.Start+pl.Time {
				return fmt.Errorf("placements %d and %d overlap", j, i)
			}
		}
	}
	for _, mi := range p.SOC.TestableModules() {
		if !seen[mi] {
			return fmt.Errorf("testable module %d not placed", mi)
		}
	}
	return nil
}
