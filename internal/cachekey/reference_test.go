package cachekey

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"multisite/internal/core"
)

// referenceScenario is the fmt rendering Scenario was rebuilt from: the
// same fields in the same order, formatted with fmt.Fprintf. It is the
// executable specification of the key bytes — TestScenarioMatchesFmt
// pins Scenario to it — and is never called outside tests.
func referenceScenario(socHash, solver string, cfg core.Config) string {
	cfg = cfg.Normalized()
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	b.WriteString("optimize/v1|soc=")
	b.WriteString(socHash)
	b.WriteString("|solver=")
	b.WriteString(solver)
	fmt.Fprintf(&b, "|N=%d|D=%d|clk=%s|bc=%t",
		cfg.ATE.Channels, cfg.ATE.Depth, f(cfg.ATE.ClockHz), cfg.ATE.Broadcast)
	fmt.Fprintf(&b, "|ti=%s|tc=%s", f(cfg.Probe.IndexTime), f(cfg.Probe.ContactTime))
	fmt.Fprintf(&b, "|pc=%s|pm=%s|abort=%t|retest=%t|pins=%d",
		f(cfg.ContactYield), f(cfg.Yield), cfg.AbortOnFail, cfg.Retest, cfg.ControlPins)
	fmt.Fprintf(&b, "|rule=%d|maxw=%d|nosq=%t|single=%t",
		cfg.TAM.Rule, cfg.TAM.MaxWires, cfg.TAM.NoSqueeze, cfg.TAM.SinglePass)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
