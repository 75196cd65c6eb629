package solve

import (
	"context"

	"multisite/internal/core"
	"multisite/internal/exact"
	"multisite/internal/soc"
	"multisite/internal/tam"
	"multisite/internal/wrapper"
)

func init() { Register(exactSolver{}) }

// exactSolver is the branch-and-bound ground truth: it searches the full
// set-partition lattice for the provably minimum-wire channel-group
// design (internal/exact), then feeds that optimal Step 1 through the
// shared Step 2 redistribution — the exact counterpart of the two-step
// algorithm, and the reference the heuristic's optimality gap is measured
// against. Bounded to exact.MaxModules testable modules; larger SOCs
// return an error rather than an unbounded search. The Step 1 ablation
// knobs (cfg.TAM) tune the heuristic and are ignored here.
type exactSolver struct{}

func (exactSolver) Name() string { return "exact" }

func (exactSolver) Info() Info {
	return Info{
		Name:        "exact",
		Description: "branch-and-bound over canonical set partitions; provably minimum-wire Step 1, then the shared Step 2",
		Complexity:  "Bell(m) partitions with monotone pruning",
		Exact:       true,
		MaxModules:  exact.MaxModules,
	}
}

func (e exactSolver) Solve(ctx context.Context, s *soc.SOC, cfg core.Config) (*core.Result, error) {
	return e.SolveAnytime(ctx, s, cfg, nil, nil)
}

// SolveAnytime is the anytime face of the branch-and-bound: the shared
// incumbent seeds (and keeps tightening) the search's pruning bound, and
// every improving partition is realized through the shared Step 2 and
// handed to observe before the search continues. A search that exhausts
// the lattice without beating the incumbent returns
// exact.ErrNoImprovement — the portfolio reads that as an optimality
// proof for the incumbent, not a failure.
func (e exactSolver) SolveAnytime(ctx context.Context, s *soc.SOC, cfg core.Config, inc *Incumbent, observe func(*core.Result)) (*core.Result, error) {
	opts := exact.Options{}
	if inc != nil {
		opts.Bound = inc
	}
	if observe != nil || inc != nil {
		opts.OnImproving = func(sol *exact.Solution) {
			if inc != nil {
				inc.Tighten(sol.Wires)
			}
			if observe == nil {
				return
			}
			arch := architectureOf(s, cfg.ATE.Depth, sol.Blocks, sol.Widths)
			if res, err := core.BuildResult(ctx, s, cfg, arch); err == nil {
				observe(res)
			}
		}
	}
	sol, err := exact.Solve(ctx, s, cfg.ATE, opts)
	if err != nil {
		return nil, err
	}
	arch := architectureOf(s, cfg.ATE.Depth, sol.Blocks, sol.Widths)
	res, err := core.BuildResult(ctx, s, cfg, arch)
	if err != nil {
		return nil, err
	}
	if inc != nil {
		inc.Tighten(res.Step1.Wires())
	}
	return res, nil
}

// architectureOf materializes explicit (block, width) assignments as a
// channel-group architecture: one group per block, every member refit at
// the block's width through the shared wrapper designer, so the result
// satisfies tam's Validate by construction.
func architectureOf(s *soc.SOC, depth int64, blocks [][]int, widths []int) *tam.Architecture {
	d := wrapper.For(s)
	arch := &tam.Architecture{SOC: s, Designer: d, Depth: depth}
	for b, members := range blocks {
		g := &tam.Group{Width: widths[b]}
		for _, mi := range members {
			t := d.Time(mi, g.Width)
			g.Members = append(g.Members, mi)
			g.Times = append(g.Times, t)
			g.Fill += t
		}
		arch.Groups = append(arch.Groups, g)
	}
	return arch
}
