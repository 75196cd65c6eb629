// Command experiments regenerates every table and figure of the paper's
// evaluation section, plus the repository's ablations. With no arguments
// it runs everything; otherwise it runs the named experiments.
//
// Usage:
//
//	experiments                 # all of them
//	experiments fig5 table1     # a subset
//	experiments -list
//	experiments -csv fig6a      # machine-readable series
//	experiments -workers 8      # bound the sweep-engine pool
//	experiments -solver exact fig5   # rerun a figure under another backend
//	experiments -list-solvers
//	experiments -cpuprofile cpu.pprof -memprofile mem.pprof table1
//
// Every experiment fans its grid points across the internal/engine worker
// pool; -workers bounds it (default GOMAXPROCS). Outputs are byte-identical
// at any worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"multisite/internal/cli"
	"multisite/internal/engine"
	"multisite/internal/experiments"
	"multisite/internal/report"
)

type experiment struct {
	desc string
	run  func() *report.Table
}

func table(f func() *report.Figure) func() *report.Table {
	return func() *report.Table { return f().Table() }
}

func main() {
	var (
		list        = flag.Bool("list", false, "list available experiments")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		plot        = flag.Bool("plot", false, "render figures as ASCII charts as well")
		workers     = flag.Int("workers", 0, "sweep-engine worker pool size (0 = GOMAXPROCS)")
		solver      = flag.String("solver", "", "optimizer backend for every experiment job (see -list-solvers; default heuristic)")
		listSolvers = flag.Bool("list-solvers", false, "list the registered optimizer backends")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *listSolvers {
		cli.PrintSolvers(os.Stdout)
		return
	}
	solverName, err := cli.ResolveSolver(*solver)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	stopProfiles, err := cli.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	// die flushes the profiles before exiting, so error paths still
	// produce readable profile files; the defer covers normal returns
	// (os.Exit skips defers, so the two never both run).
	die := func(code int) {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
		os.Exit(code)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
	}()
	experiments.Workers = *workers
	experiments.Solver = solverName
	// One memo for the whole invocation: experiments sharing a design key
	// (e.g. the PNX8550 base cell) optimize it once.
	experiments.DesignMemo = engine.NewMemo()

	figures := map[string]func() *report.Figure{
		"fig5": experiments.Fig5, "fig6a": experiments.Fig6a, "fig6b": experiments.Fig6b,
		"fig7a": experiments.Fig7a, "fig7b": experiments.Fig7b,
	}
	catalog := map[string]experiment{
		"fig5":       {"Fig. 5: throughput vs sites (PNX8550, broadcast on/off, Step1 vs Step1+2)", table(experiments.Fig5)},
		"fig6a":      {"Fig. 6(a): throughput vs ATE channels", table(experiments.Fig6a)},
		"fig6b":      {"Fig. 6(b): throughput vs vector memory depth", table(experiments.Fig6b)},
		"cost":       {"Section 7: memory-vs-channels cost trade-off", experiments.CostTrade},
		"fig7a":      {"Fig. 7(a): unique throughput vs depth under re-test", table(experiments.Fig7a)},
		"fig7b":      {"Fig. 7(b): abort-on-fail test time vs sites", table(experiments.Fig7b)},
		"table1":     {"Table 1: LB / baseline [7] / ours, 4 SOCs x 11 depths", experiments.Table1},
		"abl1":       {"Ablation: Step 1 option rule", experiments.AblationOptionRule},
		"abl2":       {"Ablation: COMBINE vs plain LPT wrapper fit", experiments.AblationWrapper},
		"abl3":       {"Extension: wafer periphery losses", experiments.WaferPeriphery},
		"ext-exact":  {"Extension: Step 1 vs exact branch-and-bound optimum", experiments.ExtExactGap},
		"ext-ctl":    {"Extension: IEEE 1500 / TAP control overhead", experiments.ExtControlOverhead},
		"ext-sched":  {"Extension: abort-on-fail module-ordering gain", experiments.ExtSchedulingGain},
		"ext-cost":   {"Extension: test cost per device vs multi-site", experiments.ExtCostPerDevice},
		"ext-flow":   {"Extension: wafer sort vs final test flow", experiments.ExtTestFlow},
		"ext-family": {"Extension: channel staircase across the extended ITC'02 family", experiments.ExtFamilySweep},
		"ext-tdc":    {"Extension: test data compression x multi-site", experiments.ExtTDC},
		"ext-bitval": {"Extension: bit-accurate cross-validation of the fault-cycle model", experiments.ExtBitVal},
	}
	order := []string{"fig5", "fig6a", "fig6b", "cost", "fig7a", "fig7b", "table1",
		"abl1", "abl2", "abl3", "ext-exact", "ext-ctl", "ext-sched", "ext-cost", "ext-flow", "ext-family", "ext-tdc", "ext-bitval"}

	if *list {
		names := make([]string, 0, len(catalog))
		for n := range catalog {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-8s %s\n", n, catalog[n].desc)
		}
		return
	}

	selected := flag.Args()
	if len(selected) == 0 {
		selected = order
	}
	for i, name := range selected {
		exp, ok := catalog[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try -list)\n", name)
			die(2)
		}
		if i > 0 {
			fmt.Println()
		}
		t, err := runExperiment(exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			die(1)
		}
		if *csv {
			if err := t.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				die(1)
			}
		} else if err := t.Write(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			die(1)
		}
		if *plot {
			if f, ok := figures[name]; ok {
				fig, err := runFigure(f)
				if err != nil {
					fmt.Fprintln(os.Stderr, "experiments:", err)
					die(1)
				}
				fmt.Println()
				fmt.Print(fig.Plot(report.PlotOptions{}))
			}
		}
	}
}

// runExperiment runs one catalog entry, converting a solver-induced
// infeasibility (experiments.SolverJobError — a user picked a backend
// that cannot handle the experiment's grid) into a clean error instead
// of a stack trace. Genuine programming-error panics keep panicking.
func runExperiment(exp experiment) (t *report.Table, err error) {
	defer recoverSolverJobError(&err)
	return exp.run(), nil
}

// runFigure is runExperiment for the -plot path.
func runFigure(f func() *report.Figure) (fig *report.Figure, err error) {
	defer recoverSolverJobError(&err)
	return f(), nil
}

func recoverSolverJobError(err *error) {
	switch p := recover().(type) {
	case nil:
	case *experiments.SolverJobError:
		*err = p
	default:
		panic(p)
	}
}
