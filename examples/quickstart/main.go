// Quickstart: design the on-chip test infrastructure of a small modular
// SOC for optimal multi-site testing on a mid-range ATE, in ~30 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"multisite/internal/ate"
	"multisite/internal/core"
	"multisite/internal/soc"
)

func main() {
	// An SOC with three embedded cores: one combinational, two scan-
	// tested. Terminal counts, scan chains, and pattern counts are all
	// the optimizer needs.
	chip := &soc.SOC{Name: "quickstart", Modules: []soc.Module{
		{ID: 1, Name: "alu", Inputs: 64, Outputs: 32, Patterns: 1200},
		{ID: 2, Name: "dsp", Inputs: 40, Outputs: 40, Patterns: 3000,
			ScanChains: soc.UniformChains(8, 96)},
		{ID: 3, Name: "uart", Inputs: 12, Outputs: 8, Patterns: 900,
			ScanChains: soc.ChainsOfLengths(64, 60)},
	}}

	cfg := core.Config{
		// The fixed target test cell: a 64-channel ATE with 512 K
		// vectors per channel at 10 MHz, and a probe station that
		// needs 0.5 s to index and 0.1 s for the contact test.
		ATE:   ate.ATE{Channels: 64, Depth: 512 << 10, ClockHz: 10e6},
		Probe: ate.ProbeStation{IndexTime: 0.5, ContactTime: 0.1},
	}

	res, err := core.Optimize(chip, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Step 1 needs k=%d ATE channels per SOC -> up to %d sites in parallel\n",
		res.Step1.Channels(), res.MaxSites)
	fmt.Printf("Optimal multi-site: n=%d sites at k=%d channels each\n",
		res.Best.Sites, res.Best.Channels)
	fmt.Printf("Test time per touchdown: %.4f s, throughput %.0f devices/hour\n",
		res.Best.TestTimeSec, res.Best.Throughput)

	// The result holds no curve: score every site count to draw one.
	curve := make([]core.SiteEval, res.MaxSites)
	step1Curve := make([]core.SiteEval, res.MaxSites)
	res.Rescore(res.Config, curve, step1Curve)
	fmt.Println("\nThroughput by site count (Step1+2 vs Step1-only):")
	for n := 1; n <= res.MaxSites; n++ {
		fmt.Printf("  n=%2d  Dth=%8.0f  (step1-only %8.0f)\n",
			n, curve[n-1].Throughput, step1Curve[n-1].Throughput)
	}
}
