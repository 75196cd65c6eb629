package soc_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"multisite/internal/benchdata"
	"multisite/internal/soc"
)

// referenceHash is SOC.Hash as it was first written, feeding each field
// to a streaming SHA-256 in turn; Hash lays the same bytes out in one
// buffer and hashes them in one call. It is the executable specification
// TestHashMatchesReference pins Hash to, and is never called outside
// tests.
func referenceHash(s *soc.SOC) string {
	h := sha256.New()
	hashString(h, s.Name)
	hashInt(h, len(s.Modules))
	for i := range s.Modules {
		m := &s.Modules[i]
		hashInt(h, m.ID)
		hashString(h, m.Name)
		hashInt(h, m.Level)
		hashInt(h, m.Inputs)
		hashInt(h, m.Outputs)
		hashInt(h, m.Bidirs)
		hashInt(h, m.Patterns)
		hashBool(h, m.IsMemory)
		hashInt(h, len(m.ScanChains))
		for _, c := range m.ScanChains {
			hashInt(h, c.Length)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashString(h hash.Hash, s string) {
	hashInt(h, len(s))
	h.Write([]byte(s))
}

func hashInt(h hash.Hash, v int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
	h.Write(buf[:])
}

func hashBool(h hash.Hash, v bool) {
	if v {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}

// hashChips are every built-in chip, the adversarial one, generated
// chips of several shapes, and degenerate ones: no modules, no name,
// negative fields and a multi-byte name.
func hashChips() []*soc.SOC {
	var chips []*soc.SOC
	for _, name := range benchdata.Names() {
		chips = append(chips, benchdata.Shared(name))
	}
	chips = append(chips, benchdata.Adversarial())
	for seed := int64(1); seed <= 20; seed++ {
		chips = append(chips, benchdata.Generate(benchdata.GenSpec{
			Name:        "gen",
			Seed:        seed,
			LogicCores:  1 + int(seed%14),
			MemoryCores: int(seed % 4),
			TargetArea:  seed * benchdata.Mi / 4,
			Spread:      0.2 * float64(seed%8),
		}))
	}
	return append(chips,
		&soc.SOC{},
		&soc.SOC{Name: "empty"},
		&soc.SOC{Modules: []soc.Module{{ID: -1, Level: -2, Inputs: -3, IsMemory: true, ScanChains: soc.ChainsOfLengths(-4, 0)}}},
		&soc.SOC{Name: "ünïcode", Modules: []soc.Module{{ID: 1, Name: "模块", Patterns: 1 << 40}}},
	)
}

// TestHashMatchesReference pins Hash to the streaming reference on every
// chip of hashChips.
func TestHashMatchesReference(t *testing.T) {
	for i, s := range hashChips() {
		if got, want := s.Hash(), referenceHash(s); got != want {
			t.Errorf("chip %d (%q, %d modules): hash %s, reference %s", i, s.Name, len(s.Modules), got, want)
		}
	}
}

// TestHashAllocs pins Hash's allocations, whatever the chip's size: the
// field buffer, and the hex digit slice and string. The streaming
// reference took one allocation per field: 39 for d695 and 831 for
// pnx8550.
func TestHashAllocs(t *testing.T) {
	for _, name := range []string{"d695", "pnx8550"} {
		s := benchdata.Shared(name)
		if allocs := testing.AllocsPerRun(100, func() { s.Hash() }); allocs > 3 {
			t.Errorf("%s: %.0f allocations per hash; want at most 3", name, allocs)
		}
	}
}
