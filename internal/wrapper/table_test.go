package wrapper_test

import (
	"math/rand"
	"testing"

	"multisite/internal/benchdata"
	"multisite/internal/soc"
	"multisite/internal/wrapper"
)

// randomModule draws a module shape the way real cores vary: up to 40
// chains that are equal, mildly uneven or wildly uneven, up to 200
// inputs/outputs, a few bidirs, and now and then no patterns.
func randomModule(rng *rand.Rand) soc.Module {
	m := soc.Module{
		Inputs:   rng.Intn(200),
		Outputs:  rng.Intn(200),
		Bidirs:   rng.Intn(3) * rng.Intn(12),
		Patterns: 1 + rng.Intn(500),
	}
	if rng.Intn(20) == 0 {
		m.Patterns = 0
	}
	n := rng.Intn(41)
	base := 1 + rng.Intn(300)
	for i := 0; i < n; i++ {
		l := base
		switch rng.Intn(3) {
		case 1:
			l += rng.Intn(base/5 + 1)
		case 2:
			l = 1 + rng.Intn(4*base)
		}
		m.ScanChains = append(m.ScanChains, soc.ScanChain{Length: l})
	}
	return m
}

// edgeModules are the shapes where the kernel's closed forms switch
// branches: no chains, no cells on one side, bidirs, one chain, chain
// counts around the number of chains, tables past MaxTableWidth and
// modules without patterns.
var edgeModules = []soc.Module{
	{Inputs: 32, Outputs: 32, Patterns: 12},
	{Patterns: 7},
	{Inputs: 5, Patterns: 3},
	{Outputs: 9, Patterns: 4, ScanChains: soc.ChainsOfLengths(10, 3)},
	{Inputs: 9, Patterns: 4, ScanChains: soc.ChainsOfLengths(10, 3)},
	{Patterns: 50, ScanChains: soc.ChainsOfLengths(40, 30, 30, 20, 5)},
	{Bidirs: 6, Patterns: 10},
	{Inputs: 2, Outputs: 1, Bidirs: 40, Patterns: 20, ScanChains: soc.ChainsOfLengths(17, 17, 16)},
	{Inputs: 35, Outputs: 2, Patterns: 75, ScanChains: soc.ChainsOfLengths(32)},
	{Inputs: 1, Outputs: 1, Patterns: 9, ScanChains: soc.ChainsOfLengths(100, 1, 1, 1, 1, 1, 1, 1)},
	{Inputs: 3, Outputs: 2, Patterns: 9, ScanChains: soc.UniformChains(6, 25)},
	{Inputs: 700, Outputs: 30, Patterns: 5, ScanChains: soc.ChainsOfLengths(60, 55, 41, 40, 12, 8, 8, 2)},
	{Inputs: 20, Outputs: 530, Bidirs: 4, Patterns: 2, ScanChains: soc.UniformChains(3, 90)},
	{Inputs: 100, Outputs: 100, ScanChains: soc.ChainsOfLengths(54, 53, 52, 52)},
	{Inputs: 600, Outputs: 600},
}

func TestDesignerMatchesReference(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 150; i++ {
			m := randomModule(rng)
			wrapper.CheckDesignerAgainstReference(t, &m)
		}
	})
	t.Run("edge", func(t *testing.T) {
		for i := range edgeModules {
			wrapper.CheckDesignerAgainstReference(t, &edgeModules[i])
		}
	})
	t.Run("builtin", func(t *testing.T) {
		for _, name := range benchdata.Names() {
			s := benchdata.Shared(name)
			for mi := range s.Modules {
				wrapper.CheckDesignerAgainstReference(t, &s.Modules[mi])
			}
		}
	})
}

func FuzzDesignerTable(f *testing.F) {
	f.Add(uint16(35), uint16(2), uint16(0), uint16(75), []byte{32})
	f.Add(uint16(36), uint16(39), uint16(0), uint16(105), []byte{54, 53, 52, 52})
	f.Add(uint16(0), uint16(0), uint16(6), uint16(10), []byte{})
	f.Add(uint16(600), uint16(20), uint16(3), uint16(4), []byte{9, 8, 7, 7, 7, 1})
	f.Add(uint16(4), uint16(1), uint16(0), uint16(0), []byte{5, 5})
	f.Add(uint16(0), uint16(0), uint16(0), uint16(9), []byte{200, 1, 1, 1, 1, 0, 3})
	f.Fuzz(func(t *testing.T, inputs, outputs, bidirs, patterns uint16, chains []byte) {
		// Bounded so one reference build stays in the milliseconds
		// while cell counts still reach past MaxTableWidth.
		m := soc.Module{
			Inputs:   int(inputs % 700),
			Outputs:  int(outputs % 700),
			Bidirs:   int(bidirs % 64),
			Patterns: int(patterns % 1024),
		}
		for _, l := range chains[:min(len(chains), 64)] {
			m.ScanChains = append(m.ScanChains, soc.ScanChain{Length: int(l)})
		}
		wrapper.CheckDesignerAgainstReference(t, &m)
	})
}
