package soc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Hash returns the canonical content hash of the SOC as a hex string: a
// SHA-256 over every field that determines test behaviour, serialized in
// a fixed order. Two SOCs with identical content — name, module order,
// and per-module parameters — hash identically, regardless of how they
// were built (literal construction, Parse, Clone, a Write/Parse round
// trip). The hash is the content-addressed identity the result cache and
// HTTP serving layer key on: inline request SOCs that equal a built-in
// benchmark share its cache entries.
//
// Module order is significant, matching the equality that the textual
// round trip preserves: the architecture design itself is order-sensitive
// (Step 1 tie-breaks on module position), so two reorderings of the same
// module set are genuinely different design inputs.
//
// The fields are laid out in one buffer, sized up front, and hashed in
// one call: a handful of allocations whatever the chip's size.
func (s *SOC) Hash() string {
	n := 16 + len(s.Name)
	for i := range s.Modules {
		m := &s.Modules[i]
		n += 8*8 + len(m.Name) + 1 + 8*len(m.ScanChains)
	}
	buf := make([]byte, 0, n)
	buf = appendString(buf, s.Name)
	buf = appendInt(buf, len(s.Modules))
	for i := range s.Modules {
		m := &s.Modules[i]
		buf = appendInt(buf, m.ID)
		buf = appendString(buf, m.Name)
		buf = appendInt(buf, m.Level)
		buf = appendInt(buf, m.Inputs)
		buf = appendInt(buf, m.Outputs)
		buf = appendInt(buf, m.Bidirs)
		buf = appendInt(buf, m.Patterns)
		buf = appendBool(buf, m.IsMemory)
		buf = appendInt(buf, len(m.ScanChains))
		for _, c := range m.ScanChains {
			buf = appendInt(buf, c.Length)
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// appendString appends a length-prefixed string, so field boundaries are
// unambiguous ("ab"+"c" never collides with "a"+"bc").
func appendString(buf []byte, s string) []byte {
	return append(appendInt(buf, len(s)), s...)
}

// appendInt appends v as 8 little-endian bytes.
func appendInt(buf []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
}

// appendBool appends v as one byte, 1 or 0.
func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}
