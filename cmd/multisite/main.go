// Command multisite designs the on-chip test infrastructure of an SOC for
// optimal multi-site testing on a given ATE, implementing the paper's
// two-step algorithm end to end: it prints the Step 1 channel-group
// architecture, the E-RPCT wrapper parameters, the throughput curve over
// site counts, and the optimal operating point.
//
// Beyond the paper's single-scenario flow, the -sweep-* flags expand a
// SOC × ATE × cost-model grid and fan it across the internal/engine
// worker pool, printing one summary row per scenario. The engine memoizes
// the expensive Step 1 design per (ATE, TAM) key, so yield sweeps re-score
// cached architectures instead of redesigning them; results are
// byte-identical at any -workers value.
//
// Usage:
//
//	multisite -soc d695 -channels 256 -depth 64K
//	multisite -file chip.soc -channels 512 -depth 7M -broadcast \
//	    -contact-yield 0.999 -yield 0.9 -abort -retest
//	multisite -soc pnx8550 -sweep-depths 5M:14M:1M \
//	    -sweep-contact-yields 1,0.999,0.99 -retest -workers 8
//	multisite -soc d695 -channels 256 -sweep-depths 48K,64K,128K \
//	    -broadcast-both -progress
//	multisite -soc pnx8550 -cpuprofile cpu.pprof -memprofile mem.pprof
//	multisite -soc d695 -channels 256 -depth 64K -solver exact
//	multisite -list-solvers
//
// -solver selects the optimizer backend from the internal/solve registry
// (default: the paper's two-step heuristic); -list-solvers prints the
// menu. The backend applies to single runs and sweeps alike.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/cli"
	"multisite/internal/core"
	"multisite/internal/engine"
	"multisite/internal/report"
	"multisite/internal/rpct"
	"multisite/internal/soc"
)

func main() {
	var (
		socName     = flag.String("soc", "", "built-in benchmark name: "+strings.Join(benchdata.Names(), ", "))
		file        = flag.String("file", "", "path to an ITC'02-style .soc file")
		channels    = flag.Int("channels", 512, "ATE channel count N")
		depthStr    = flag.String("depth", "7M", "vector memory depth per channel (e.g. 64K, 7M, 100000)")
		clock       = flag.Float64("clock", 5e6, "test clock frequency in Hz")
		broadcast   = flag.Bool("broadcast", false, "ATE supports stimuli broadcast")
		indexTime   = flag.Float64("index", 0.65, "prober index time ti in seconds")
		contact     = flag.Float64("contact", 0.1, "contact test time tc in seconds")
		pc          = flag.Float64("contact-yield", 1, "per-terminal contact yield pc")
		pm          = flag.Float64("yield", 1, "per-SOC manufacturing yield pm")
		abort       = flag.Bool("abort", false, "model abort-on-fail")
		retest      = flag.Bool("retest", false, "model re-testing of contact failures")
		solver      = flag.String("solver", "", "optimizer backend (see -list-solvers; default heuristic)")
		listSolvers = flag.Bool("list-solvers", false, "list the registered optimizer backends")

		netlist  = flag.Bool("netlist", false, "emit the E-RPCT wrapper netlist")
		showArch = flag.Bool("arch", false, "print the channel-group architecture in full")
		saveArch = flag.String("save", "", "save the optimal architecture to this file")

		sweepDepths   = flag.String("sweep-depths", "", "depth sweep: comma list (48K,64K) or start:stop:step (5M:14M:1M)")
		sweepChannels = flag.String("sweep-channels", "", "channel-count sweep: comma list (256,512,1024)")
		sweepPC       = flag.String("sweep-contact-yields", "", "contact-yield sweep: comma list (1,0.999,0.99)")
		sweepPM       = flag.String("sweep-yields", "", "manufacturing-yield sweep: comma list (1,0.9,0.7)")
		bcBoth        = flag.Bool("broadcast-both", false, "sweep both broadcast variants")
		workers       = flag.Int("workers", 0, "sweep-engine worker pool size (0 = GOMAXPROCS)")
		progress      = flag.Bool("progress", false, "report sweep progress on stderr")
		cpuprofile    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *listSolvers {
		cli.PrintSolvers(os.Stdout)
		return
	}
	solverName, err := cli.ResolveSolver(*solver)
	if err != nil {
		fatal(err)
	}
	stop, err := cli.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "multisite:", err)
		}
	}()

	s, err := cli.LoadSOC(*socName, *file)
	if err != nil {
		fatal(err)
	}
	depth, err := cli.ParseSize(*depthStr)
	if err != nil {
		fatal(err)
	}

	probe := ate.ProbeStation{IndexTime: *indexTime, ContactTime: *contact}
	sweeping := *sweepDepths != "" || *sweepChannels != "" || *sweepPC != "" || *sweepPM != "" || *bcBoth

	if sweeping {
		if *saveArch != "" || *showArch || *netlist {
			fatal(fmt.Errorf("-save, -arch, and -netlist apply to single-scenario runs, not sweeps"))
		}
		grid, err := buildGrid(s, gridFlags{
			solver:   solverName,
			channels: *channels, depth: depth, clock: *clock, broadcast: *broadcast,
			probe: probe, pc: *pc, pm: *pm, abort: *abort, retest: *retest,
			sweepDepths: *sweepDepths, sweepChannels: *sweepChannels,
			sweepPC: *sweepPC, sweepPM: *sweepPM, bcBoth: *bcBoth,
		})
		if err != nil {
			fatal(err)
		}
		if err := runSweep(grid, *workers, *progress); err != nil {
			fatal(err)
		}
		return
	}

	cfg := core.Config{
		ATE:          ate.ATE{Channels: *channels, Depth: depth, ClockHz: *clock, Broadcast: *broadcast},
		Probe:        probe,
		ContactYield: *pc,
		Yield:        *pm,
		AbortOnFail:  *abort,
		Retest:       *retest,
	}
	// The single-scenario flow is a one-job sweep.
	results, _ := engine.Run(context.Background(),
		[]engine.Job{{Name: s.Name, SOC: s, Config: cfg, Solver: solverName}},
		engine.Options{Workers: 1})
	res := results[0]
	if res.Err != nil {
		fatal(res.Err)
	}

	fmt.Printf("SOC %s on ATE with N=%d channels, D=%d vectors, %.0f MHz (broadcast=%v)\n",
		s.Name, *channels, depth, *clock/1e6, *broadcast)
	fmt.Printf("Step 1: k=%d channels over %d channel groups, test length %d cycles (%.3f s)\n",
		res.Design.Step1.Channels(), len(res.Design.Step1.Groups), res.Design.Step1.TestCycles(),
		cfg.ATE.SecondsFor(res.Design.Step1.TestCycles()))
	fmt.Printf("Maximum multi-site nmax=%d\n\n", res.Design.MaxSites)

	tbl := &report.Table{
		Title:  "Step 2: throughput per site count",
		Header: []string{"n", "k/site", "test (s)", "Dth (dev/h)", "Du (dev/h)", "Step1-only Dth"},
	}
	curve := make([]core.SiteEval, res.Design.MaxSites)
	step1Curve := make([]core.SiteEval, res.Design.MaxSites)
	res.Design.Rescore(cfg, curve, step1Curve)
	for n := 1; n <= res.Design.MaxSites; n++ {
		e := curve[n-1]
		mark := ""
		if n == res.Best.Sites {
			mark = " *"
		}
		tbl.AddRow(fmt.Sprintf("%d%s", n, mark), e.Channels, e.TestTimeSec,
			e.Throughput, e.UniqueThroughput, step1Curve[n-1].Throughput)
	}
	tbl.Notes = append(tbl.Notes, "* optimal multi-site")
	tbl.Write(os.Stdout)

	fmt.Printf("\nOptimal: n=%d sites, k=%d channels/site, Dth=%.0f devices/hour\n",
		res.Best.Sites, res.Best.Channels, res.Best.Throughput)

	bestArch := res.BestArch()
	w, err := rpct.Design(bestArch, res.Best.Channels, 0)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("E-RPCT wrapper: %d-in/%d-out, convert ratio %d, %d boundary cells, %d contacted pads\n",
		w.ExternalIn, w.ExternalOut, w.ConvertRatio, w.BoundaryCells, w.ContactedPins())
	flops, gates := w.Overhead()
	fmt.Printf("DfT overhead estimate: %d flops, %d gate equivalents\n", flops, gates)

	if *showArch {
		fmt.Println()
		fmt.Print(bestArch.String())
	}
	if *saveArch != "" {
		f, err := os.Create(*saveArch)
		if err != nil {
			fatal(err)
		}
		if err := bestArch.Write(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("architecture saved to %s\n", *saveArch)
	}
	if *netlist {
		fmt.Println()
		if err := w.WriteNetlist(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// gridFlags bundles the sweep-relevant flag values.
type gridFlags struct {
	solver        string
	channels      int
	depth         int64
	clock         float64
	broadcast     bool
	probe         ate.ProbeStation
	pc, pm        float64
	abort, retest bool
	sweepDepths   string
	sweepChannels string
	sweepPC       string
	sweepPM       string
	bcBoth        bool
}

// buildGrid expands the sweep flags into an engine grid; unswept axes
// collapse to the corresponding single-scenario flag value.
func buildGrid(s *soc.SOC, f gridFlags) (engine.Grid, error) {
	depths, err := cli.ParseSizeList(f.sweepDepths)
	if err != nil {
		return engine.Grid{}, err
	}
	if len(depths) == 0 {
		depths = []int64{f.depth}
	}
	chans, err := cli.ParseIntList(f.sweepChannels)
	if err != nil {
		return engine.Grid{}, err
	}
	if len(chans) == 0 {
		chans = []int{f.channels}
	}
	pcs, err := cli.ParseFloatList(f.sweepPC)
	if err != nil {
		return engine.Grid{}, err
	}
	if len(pcs) == 0 {
		pcs = []float64{f.pc}
	}
	pms, err := cli.ParseFloatList(f.sweepPM)
	if err != nil {
		return engine.Grid{}, err
	}
	if len(pms) == 0 {
		pms = []float64{f.pm}
	}
	bcs := []bool{f.broadcast}
	if f.bcBoth {
		bcs = []bool{false, true}
	}
	return engine.Grid{
		SOCs:          []*soc.SOC{s},
		Solvers:       []string{f.solver},
		Channels:      chans,
		Depths:        depths,
		ClockHz:       f.clock,
		Broadcast:     bcs,
		Probe:         f.probe,
		ContactYields: pcs,
		Yields:        pms,
		AbortOnFail:   []bool{f.abort},
		Retest:        []bool{f.retest},
	}, nil
}

// runSweep fans the grid across the engine pool and prints one summary row
// per scenario, in grid order.
func runSweep(grid engine.Grid, workers int, progress bool) error {
	jobs := grid.Jobs()
	opts := engine.Options{Workers: workers, Memo: engine.NewMemo()}
	if progress {
		opts.Progress = func(p engine.Progress) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", p.Done, p.Total, p.Result.Job.Name)
		}
	}
	results, err := engine.Run(context.Background(), jobs, opts)
	if err != nil {
		return err
	}

	tbl := &report.Table{
		Title:  fmt.Sprintf("Sweep: %d scenarios", len(jobs)),
		Header: []string{"scenario", "N", "D", "k", "nmax", "n_opt", "test (s)", "Dth (dev/h)", "Du (dev/h)"},
	}
	failed := 0
	for _, r := range results {
		a := r.Job.Config.ATE
		if r.Err != nil {
			failed++
			tbl.AddRow(r.Job.Name, a.Channels, engine.FormatDepth(a.Depth),
				"-", "-", "-", "-", "-", fmt.Sprintf("error: %v", r.Err))
			continue
		}
		tbl.AddRow(r.Job.Name, a.Channels, engine.FormatDepth(a.Depth),
			r.Best.Channels, r.Design.MaxSites, r.Best.Sites,
			r.Best.TestTimeSec, r.Best.Throughput, r.Best.UniqueThroughput)
	}
	if requests, misses := opts.Memo.Stats(); requests > misses {
		tbl.Notes = append(tbl.Notes, fmt.Sprintf(
			"engine memo: %d scenarios re-scored %d Step 1 designs", requests, misses))
	}
	if failed > 0 {
		tbl.Notes = append(tbl.Notes, fmt.Sprintf("%d of %d scenarios infeasible", failed, len(jobs)))
	}
	return tbl.Write(os.Stdout)
}

// stopProfiles flushes any active -cpuprofile/-memprofile; fatal calls it
// so failed runs — the ones most worth profiling — still yield readable
// profile files. A no-op until main installs the real stopper.
var stopProfiles = func() error { return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "multisite:", err)
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "multisite:", err)
	}
	os.Exit(1)
}
