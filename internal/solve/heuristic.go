package solve

import (
	"context"

	"multisite/internal/core"
	"multisite/internal/soc"
)

func init() { Register(heuristicSolver{}) }

// heuristicSolver is the paper's two-step algorithm — the default backend.
// It is a pure delegate to core.OptimizeCtx, so a Result served through
// the registry is bit-identical to one from a direct core.Optimize call
// (the delegation is pinned by TestHeuristicMatchesCoreOptimize). It has
// no anytime method: the greedy design has no improving sequence worth
// streaming, so SolveAnytimeOf runs it once, tightens the incumbent with
// its wire count and reports it to observe.
type heuristicSolver struct{}

func (heuristicSolver) Name() string { return DefaultName }

func (heuristicSolver) Info() Info {
	return Info{
		Name:        DefaultName,
		Description: "two-step greedy channel-group design (Section 6): free-memory rule, squeeze portfolio, Step 2 widening",
		Complexity:  "greedy with restarts, polynomial in modules x wires",
	}
}

func (heuristicSolver) Solve(ctx context.Context, s *soc.SOC, cfg core.Config) (*core.Result, error) {
	return core.OptimizeCtx(ctx, s, cfg)
}
