// Package cachekey derives the canonical content-addressed keys of the
// serving layer. Every optimize/sweep/job result in the system is keyed
// by a SHA-256 over (canonical SOC hash, canonical solver name, cost
// model and TAM configuration) — the key the result cache stores bytes
// under, the key the disk tier addresses, and, in fleet mode, the key
// the consistent-hash ring shards the fleet's traffic on.
//
// The derivation lives in its own package so the two parties that must
// agree on it — internal/server (which stores under the key) and the
// fleet gateway (which routes on it) — share one implementation and
// structurally cannot drift. A gateway computing a different key than
// the shard it routes to would turn every fleet request into a cache
// miss on the wrong shard; importing one function makes that bug
// unexpressible.
package cachekey

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"multisite/internal/core"
)

// Scenario derives the content-addressed cache key of one optimization
// scenario: a SHA-256 over the canonical SOC hash, the canonical solver
// name, and every configuration field that affects the response,
// rendered in a fixed order with exact float formatting. Two requests
// produce one key iff they describe the same computation — a client
// uploading d695 inline shares entries with requests naming the
// built-in benchmark, while two backends' responses for one scenario
// never alias (solver is a key dimension). Callers pass the solver's
// canonical name (solve.Solver.Name), never the request's spelling, so
// "" and "heuristic" address one entry. The configuration is normalized
// here, so callers need not pre-normalize. Every sweep row derives one
// key, so the fields are appended into one buffer with strconv rather
// than formatted through fmt; TestScenarioMatchesFmt pins the bytes to
// the fmt rendering.
func Scenario(socHash, solver string, cfg core.Config) string {
	cfg = cfg.Normalized()
	b := make([]byte, 0, 256)
	b = append(b, "optimize/v1|soc="...)
	b = append(b, socHash...)
	b = append(b, "|solver="...)
	b = append(b, solver...)
	b = strconv.AppendInt(append(b, "|N="...), int64(cfg.ATE.Channels), 10)
	b = strconv.AppendInt(append(b, "|D="...), cfg.ATE.Depth, 10)
	b = appendFloat(append(b, "|clk="...), cfg.ATE.ClockHz)
	b = strconv.AppendBool(append(b, "|bc="...), cfg.ATE.Broadcast)
	b = appendFloat(append(b, "|ti="...), cfg.Probe.IndexTime)
	b = appendFloat(append(b, "|tc="...), cfg.Probe.ContactTime)
	b = appendFloat(append(b, "|pc="...), cfg.ContactYield)
	b = appendFloat(append(b, "|pm="...), cfg.Yield)
	b = strconv.AppendBool(append(b, "|abort="...), cfg.AbortOnFail)
	b = strconv.AppendBool(append(b, "|retest="...), cfg.Retest)
	b = strconv.AppendInt(append(b, "|pins="...), int64(cfg.ControlPins), 10)
	b = strconv.AppendInt(append(b, "|rule="...), int64(cfg.TAM.Rule), 10)
	b = strconv.AppendInt(append(b, "|maxw="...), int64(cfg.TAM.MaxWires), 10)
	b = strconv.AppendBool(append(b, "|nosq="...), cfg.TAM.NoSqueeze)
	b = strconv.AppendBool(append(b, "|single="...), cfg.TAM.SinglePass)
	sum := sha256.Sum256(b)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// RouteCompare derives the fleet routing key of a /v1/compare request.
// A comparison runs several backends, each cached under its own
// Scenario key; the routing key pins the whole comparison to one shard
// deterministically by keying the scenario under the reserved
// pseudo-solver "compare" (no registry backend can take that spelling
// of a per-backend entry, because Scenario keys use canonical registry
// names). The solver list is deliberately not a dimension: two
// comparisons of one scenario land on one shard and share that shard's
// per-backend cache entries.
func RouteCompare(socHash string, cfg core.Config) string {
	return Scenario(socHash, "compare", cfg)
}

// appendFloat appends a float64 exactly (shortest round-trip form), so
// keys never collide on formatting precision.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
