// Package exact is a branch-and-bound solver for the channel-group design
// problem on small SOCs. The 2005 paper (and this reproduction's Step 1)
// uses a greedy heuristic because the problem — partition modules into
// fixed-width test buses such that every bus fills at most the vector
// memory depth, minimizing total wires — is NP-hard; no ILP tooling is
// assumed here. For SOCs of ≲ 12 testable modules, however, exhaustive
// search over canonical set partitions with monotone pruning is cheap, and
// gives the repository a ground truth to measure the heuristic's
// optimality gap against (see the exactness tests and the abl-4 rows in
// bench output).
//
// For a fixed partition the optimal width of each block is independent:
// the smallest w at which the block's summed wrapped test time fits the
// depth (the sum is non-increasing in w because each module's wrapped time
// is). The solver therefore only searches the partition lattice,
// enumerated in restricted-growth-string order so every partition is
// visited exactly once, pruning on the monotone partial cost.
package exact

import (
	"context"
	"errors"
	"fmt"

	"multisite/internal/ate"
	"multisite/internal/soc"
	"multisite/internal/wrapper"
)

// MaxModules bounds the exact search; beyond this the partition lattice
// (Bell numbers) is too large and Solve returns an error.
const MaxModules = 12

// Solution is an optimal channel-group design.
type Solution struct {
	// Wires is the minimal total TAM wires; channels = 2·Wires.
	Wires int
	// Blocks lists the module indices of each group.
	Blocks [][]int
	// Widths[i] is the width of Blocks[i].
	Widths []int
	// TestCycles is the SOC test length of the optimal design (the
	// maximum block fill at the chosen widths).
	TestCycles int64
	// Visited counts the partitions examined (diagnostics).
	Visited int
}

// Channels returns 2·Wires.
func (s *Solution) Channels() int { return 2 * s.Wires }

// cancelCheckInterval is how many recurse entries pass between context
// polls: rare enough that the atomic-free counter check stays invisible
// in profiles, frequent enough that cancellation lands within
// microseconds on any lattice worth pruning. An external incumbent bound
// (Options.Bound) is refreshed at the same cadence.
const cancelCheckInterval = 1024

// Bound supplies a dynamic exclusive upper bound on total wires from
// outside the search — an incumbent another solver already holds. Bound
// must be safe for concurrent use and monotone non-increasing over a
// search's lifetime; 0 means no bound yet. solve.Incumbent satisfies it.
type Bound interface {
	Bound() int
}

// Options tune Solve beyond the plain branch-and-bound.
type Options struct {
	// Bound seeds (and keeps tightening) the pruning incumbent with an
	// external wire count: any partition costing >= Bound() is pruned even
	// before the search finds its own first leaf. Because the partial cost
	// is monotone, injecting a valid upper bound never changes the
	// completed search's answer — it only shrinks the explored lattice.
	Bound Bound
	// OnImproving, when non-nil, receives each complete solution that
	// improves on the incumbent, in strictly improving order, on the
	// searching goroutine. The Solution is immutable once delivered.
	OnImproving func(*Solution)
}

// ErrNoImprovement reports a search that exhausted the partition lattice
// without beating the external incumbent bound: the incumbent is proven
// wire-optimal (no partition costs fewer wires than Bound()). Only
// returned when Options.Bound was set and active.
var ErrNoImprovement = errors.New("exact: search exhausted without improving on the incumbent bound")

type solver struct {
	d        *wrapper.Designer
	modules  []int
	depth    int64
	maxWires int
	ctx      context.Context
	extBound Bound
	emit     func(*Solution)

	// search state
	blocks  [][]int // current partition blocks
	widths  []int   // minimal feasible width per block
	cost    int     // Σ widths
	best    *Solution
	ext     int // cached external bound, refreshed at the poll cadence
	visited int
	calls   int   // recurse entries since the last context poll
	err     error // context error observed mid-search; unwinds the recursion
}

// refreshExt re-reads the external bound; cheap, but called only at the
// context-poll cadence so a concurrent incumbent never contends with the
// inner loop.
func (sv *solver) refreshExt() {
	if sv.extBound != nil {
		sv.ext = sv.extBound.Bound()
	}
}

// pruneBound is the current exclusive upper bound on acceptable cost: the
// tighter of the search's own incumbent and the external bound; 0 means
// unbounded so far.
func (sv *solver) pruneBound() int {
	b := 0
	if sv.best != nil {
		b = sv.best.Wires
	}
	if sv.ext > 0 && (b == 0 || sv.ext < b) {
		b = sv.ext
	}
	return b
}

// Solve finds the minimum-wire channel-group design of the SOC on the
// target ATE, or an error if the SOC is too large or infeasible. The
// branch-and-bound polls the context every cancelCheckInterval recursion
// steps (and once up front), so a serving-layer deadline abandons even a
// hostile partition lattice promptly; a cancelled search returns the
// context's error and no partial solution. The zero Options run the
// plain search; opts.Bound makes pruning bite from the first node and
// opts.OnImproving streams each improving solution as the search lands
// on it. With an active bound and no partition beating it, the search
// returns ErrNoImprovement — a completed proof that the incumbent is
// wire-optimal, distinguishable from genuine infeasibility.
func Solve(ctx context.Context, s *soc.SOC, target ate.ATE, opts Options) (*Solution, error) {
	if err := target.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	modules := s.TestableModules()
	if len(modules) == 0 {
		return nil, fmt.Errorf("exact: soc %s has no testable modules", s.Name)
	}
	if len(modules) > MaxModules {
		return nil, fmt.Errorf("exact: %d testable modules exceed the exact-search limit of %d",
			len(modules), MaxModules)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sv := &solver{
		d:        wrapper.For(s),
		modules:  modules,
		depth:    target.Depth,
		maxWires: target.Channels / 2,
		ctx:      ctx,
		extBound: opts.Bound,
		emit:     opts.OnImproving,
	}
	sv.refreshExt()
	// Feasibility of each module alone bounds the whole search.
	for _, mi := range modules {
		if _, ok := sv.d.MinWidth(mi, target.Depth, sv.maxWires); !ok {
			return nil, fmt.Errorf("exact: module %d cannot fit depth %d on %d wires",
				s.Modules[mi].ID, target.Depth, sv.maxWires)
		}
	}
	sv.recurse(0)
	if sv.err != nil {
		return nil, sv.err
	}
	if sv.best == nil {
		sv.refreshExt()
		if sv.ext > 0 {
			return nil, ErrNoImprovement
		}
		return nil, fmt.Errorf("exact: no feasible partition within %d wires", sv.maxWires)
	}
	sv.best.Visited = sv.visited
	return sv.best, nil
}

// blockMinWidth returns the smallest width at which the block (member
// module indices) fits the depth, or ok=false. The block fill is
// non-increasing in width, so binary search applies; block sizes are tiny,
// so a doubling scan keeps it simple and exact.
func (sv *solver) blockMinWidth(members []int) (int, bool) {
	fits := func(w int) bool {
		var fill int64
		for _, mi := range members {
			fill += sv.d.Time(mi, w)
			if fill > sv.depth {
				return false
			}
		}
		return true
	}
	if !fits(sv.maxWires) {
		return 0, false
	}
	lo, hi := 1, sv.maxWires
	for lo < hi {
		mid := (lo + hi) / 2
		if fits(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// recurse assigns module index i (into sv.modules) to every existing block
// plus a fresh block — the restricted-growth enumeration of set
// partitions — pruning when the monotone partial cost cannot beat the
// incumbent.
func (sv *solver) recurse(i int) {
	if sv.err != nil {
		return // cancelled: unwind without exploring further
	}
	if sv.calls++; sv.calls >= cancelCheckInterval {
		sv.calls = 0
		if err := sv.ctx.Err(); err != nil {
			sv.err = err
			return
		}
		sv.refreshExt()
	}
	if b := sv.pruneBound(); b > 0 && sv.cost >= b {
		return // partial cost only grows as modules are added
	}
	if i == len(sv.modules) {
		sv.visited++
		sol := &Solution{Wires: sv.cost}
		var cycles int64
		for b, members := range sv.blocks {
			blk := append([]int(nil), members...)
			sol.Blocks = append(sol.Blocks, blk)
			sol.Widths = append(sol.Widths, sv.widths[b])
			var fill int64
			for _, mi := range members {
				fill += sv.d.Time(mi, sv.widths[b])
			}
			if fill > cycles {
				cycles = fill
			}
		}
		sol.TestCycles = cycles
		if sv.best == nil || sol.Wires < sv.best.Wires ||
			(sol.Wires == sv.best.Wires && sol.TestCycles < sv.best.TestCycles) {
			sv.best = sol
			if sv.emit != nil {
				// A caller that has gone must not receive designs: check
				// the context before each emit, not only every
				// cancelCheckInterval calls.
				if err := sv.ctx.Err(); err != nil {
					sv.err = err
					return
				}
				sv.emit(sol)
			}
		}
		return
	}
	mi := sv.modules[i]
	// Join each existing block.
	for b := range sv.blocks {
		sv.blocks[b] = append(sv.blocks[b], mi)
		oldW := sv.widths[b]
		if w, ok := sv.blockMinWidth(sv.blocks[b]); ok {
			sv.widths[b] = w
			sv.cost += w - oldW
			if sv.cost <= sv.maxWires {
				sv.recurse(i + 1)
			}
			sv.cost -= w - oldW
			sv.widths[b] = oldW
		}
		sv.blocks[b] = sv.blocks[b][:len(sv.blocks[b])-1]
	}
	// Open a fresh block (canonical: always the last position).
	if w, ok := sv.blockMinWidth([]int{mi}); ok {
		sv.blocks = append(sv.blocks, []int{mi})
		sv.widths = append(sv.widths, w)
		sv.cost += w
		if sv.cost <= sv.maxWires {
			sv.recurse(i + 1)
		}
		sv.cost -= w
		sv.widths = sv.widths[:len(sv.widths)-1]
		sv.blocks = sv.blocks[:len(sv.blocks)-1]
	}
}

// Gap reports the heuristic's optimality gap in wires for a designed
// architecture: heuristicWires − optimalWires (0 means optimal).
func Gap(heuristicWires int, opt *Solution) int {
	return heuristicWires - opt.Wires
}
