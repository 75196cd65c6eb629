package experiments

import (
	"fmt"
	"strings"
	"testing"

	"multisite/internal/benchdata"
)

// These are the repository's end-to-end integration tests: each one
// regenerates a paper artifact and asserts the paper's qualitative claim
// about it (the "shape": who wins, monotonicity, crossovers).

// TestRunSolverInfeasibilityPanicsTyped pins the contract cmd/experiments'
// clean -solver error path rests on: a job failing under a non-default
// Solver override panics with *SolverJobError (recoverable into a one-line
// CLI error), while the default heuristic keeps the loud string panic for
// genuine programming errors.
func TestRunSolverInfeasibilityPanicsTyped(t *testing.T) {
	old := Solver
	Solver = "exact" // pnx8550's 274 testable modules exceed exact.MaxModules
	defer func() {
		Solver = old
		p := recover()
		je, ok := p.(*SolverJobError)
		if !ok {
			t.Fatalf("run panicked with %T (%v), want *SolverJobError", p, p)
		}
		if je.Solver != "exact" || je.Unwrap() == nil ||
			!strings.Contains(je.Error(), "exceed the exact-search limit") {
			t.Errorf("unexpected SolverJobError: %v", je)
		}
	}()
	optimizeJob("pnx", benchdata.Shared("pnx8550"), PNXConfig(BaseChannels, BaseDepth, false))
	t.Fatal("run did not panic on an infeasible solver override")
}

func TestFig5Shape(t *testing.T) {
	fig := Fig5()
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(fig.Series))
	}
	var noBC, bc, bcStep1 = fig.Series[0], fig.Series[1], fig.Series[2]
	if len(bc.Y) <= len(noBC.Y) {
		t.Errorf("broadcast should reach more sites: %d vs %d", len(bc.Y), len(noBC.Y))
	}
	// Step 1+2 dominates Step 1-only pointwise.
	for i := range bcStep1.Y {
		if bc.Y[i]+1e-6 < bcStep1.Y[i] {
			t.Errorf("n=%.0f: Step1+2 %g below Step1-only %g", bc.X[i], bc.Y[i], bcStep1.Y[i])
		}
	}
	// The paper's dip-and-recover: the Step1+2 curve is not monotone in
	// n (redistribution pays off at some smaller site count).
	monotone := true
	for i := 1; i < len(bc.Y); i++ {
		if bc.Y[i] < bc.Y[i-1] {
			monotone = false
			break
		}
	}
	if monotone {
		t.Error("broadcast Step1+2 curve is monotone; expected the paper's dip-and-recover")
	}
	out := fig.String()
	if !strings.Contains(out, "gain over Step1-only") {
		t.Errorf("missing gain note:\n%s", out)
	}
}

func TestFig6aLinearScaling(t *testing.T) {
	fig := Fig6a()
	s := fig.Series[0]
	if len(s.Y) != 9 {
		t.Fatalf("points = %d, want 9 (512..1024 step 64)", len(s.Y))
	}
	// Paper: doubling the channels doubles the throughput (±10% for
	// site quantization).
	ratio := s.Y[len(s.Y)-1] / s.Y[0]
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("N 512→1024 ratio = %.2f, want ≈ 2", ratio)
	}
	// Monotone non-decreasing in channels.
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] < s.Y[i-1]-1e-6 {
			t.Errorf("throughput dropped when adding channels: %g → %g", s.Y[i-1], s.Y[i])
		}
	}
}

func TestFig6bSubLinear(t *testing.T) {
	fig := Fig6b()
	s := fig.Series[0]
	if len(s.Y) != 10 {
		t.Fatalf("points = %d, want 10 (5..14 M)", len(s.Y))
	}
	var d7, d14 float64
	for i, x := range s.X {
		if x == 7 {
			d7 = s.Y[i]
		}
		if x == 14 {
			d14 = s.Y[i]
		}
	}
	if d14 <= d7 {
		t.Errorf("deeper memory did not help: %g vs %g", d14, d7)
	}
	// Paper: doubling memory gains clearly less than 2x (sub-linear;
	// they report +27%).
	if gain := d14 / d7; gain > 1.6 {
		t.Errorf("memory doubling gain %.2f not sub-linear", gain)
	}
	// Base operating point matches the paper's Fig. 6 magnitude.
	if d7 < 0.9e4 || d7 > 1.7e4 {
		t.Errorf("base throughput %g outside the paper's 1.3e4 ballpark", d7)
	}
}

func TestCostTradeMemoryWins(t *testing.T) {
	tbl := CostTrade()
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tbl.Rows))
	}
	// Row layout: name, cost, N, D, n_opt, Dth, gain.
	parse := func(row []string) float64 {
		var v float64
		if _, err := sscan(row[5], &v); err != nil {
			t.Fatalf("bad Dth cell %q", row[5])
		}
		return v
	}
	base := parse(tbl.Rows[0])
	memory := parse(tbl.Rows[1])
	channels := parse(tbl.Rows[2])
	if memory <= base || channels <= base {
		t.Errorf("upgrades did not help: base %g, memory %g, channels %g", base, memory, channels)
	}
	// The paper's conclusion: for equal money, memory depth wins.
	if memory <= channels {
		t.Errorf("memory upgrade (%g) should beat channel upgrade (%g)", memory, channels)
	}
}

func TestFig7aContactYieldOrdering(t *testing.T) {
	fig := Fig7a()
	if len(fig.Series) != 6 {
		t.Fatalf("series = %d, want 6", len(fig.Series))
	}
	// At every depth, lower contact yield means lower unique
	// throughput (series are ordered pc = 1 … 0.99).
	for x := 0; x < len(fig.Series[0].Y); x++ {
		for si := 1; si < len(fig.Series); si++ {
			hi := fig.Series[si-1].Y[x]
			lo := fig.Series[si].Y[x]
			if lo > hi+1e-6 {
				t.Errorf("depth %gM: pc series %d (%g) above cleaner series (%g)",
					fig.Series[0].X[x], si, lo, hi)
			}
		}
	}
	// Paper: the low-yield penalty shrinks with depth. Compare the
	// relative gap at the shallowest and deepest memory.
	first, last := 0, len(fig.Series[0].Y)-1
	gapShallow := 1 - fig.Series[5].Y[first]/fig.Series[0].Y[first]
	gapDeep := 1 - fig.Series[5].Y[last]/fig.Series[0].Y[last]
	if gapDeep >= gapShallow {
		t.Errorf("pc=0.99 penalty did not shrink with depth: %.3f → %.3f", gapShallow, gapDeep)
	}
}

func TestFig7bAbortWashout(t *testing.T) {
	fig := Fig7b()
	if len(fig.Series) != 6 {
		t.Fatalf("series = %d, want 6", len(fig.Series))
	}
	full := fig.Series[0] // pm = 1: the full test time at every n
	for i := 1; i < len(full.Y); i++ {
		if full.Y[i] != full.Y[0] {
			t.Errorf("pm=1 series not flat: %v", full.Y)
		}
	}
	for _, s := range fig.Series[1:] {
		// Each series rises with n (less abort benefit) and
		// converges to the full time.
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1]-1e-9 {
				t.Errorf("%s: effective time fell with more sites", s.Name)
			}
		}
		last := s.Y[len(s.Y)-1]
		if rel := (full.Y[0] - last) / full.Y[0]; rel > 0.01 {
			t.Errorf("%s: at n=8 still %.1f%% below full time", s.Name, 100*rel)
		}
	}
	// At n = 1 the pm = 0.7 series must show a real saving.
	low := fig.Series[5]
	if rel := (full.Y[0] - low.Y[0]) / full.Y[0]; rel < 0.2 {
		t.Errorf("pm=0.7 at n=1 saves only %.1f%%", 100*rel)
	}
}

func TestTable1Complete(t *testing.T) {
	tbl := Table1()
	if len(tbl.Rows) != 44 {
		t.Fatalf("rows = %d, want 44 (4 SOCs × 11 depths)", len(tbl.Rows))
	}
	socs := map[string]int{}
	for _, row := range tbl.Rows {
		socs[row[0]]++
		for c, cell := range row {
			if cell == "" {
				t.Errorf("row %v: empty cell %d", row, c)
			}
		}
	}
	for _, name := range []string{"d695", "p22810", "p34392", "p93791"} {
		if socs[name] != 11 {
			t.Errorf("%s has %d rows, want 11", name, socs[name])
		}
	}
}

func TestTable1D695MatchesPaper(t *testing.T) {
	// The d695 block uses real module data, so our Step 1 channel
	// counts should match the paper's "Us" column (the 56K row is the
	// single known +2 deviation of our heuristic).
	want := map[string]string{
		"48K": "28", "64K": "22", "72K": "20", "80K": "18", "88K": "16",
		"96K": "14", "104K": "14", "112K": "12", "120K": "12", "128K": "12",
	}
	tbl := Table1()
	for _, row := range tbl.Rows {
		if row[0] != "d695" {
			continue
		}
		if wantK, ok := want[row[1]]; ok && row[4] != wantK {
			t.Errorf("d695 %s: us k = %s, want %s (paper)", row[1], row[4], wantK)
		}
	}
}

func TestTable1OursMatchesBaselineSites(t *testing.T) {
	// The paper reports a higher multi-site than [7] in all rows but
	// one; part of that edge comes from [7]'s more pessimistic site
	// accounting, which the published text does not specify and we do
	// not reproduce. Under a unified site formula the defensible claim
	// is: our Step 1 matches the packing baseline in the large majority
	// of rows and never trails by more than one site (see
	// EXPERIMENTS.md, deviation D2).
	tbl := Table1()
	ties, losses := 0, 0
	for _, row := range tbl.Rows {
		var baseN, usN int
		if _, err := sscan(row[5], &baseN); err != nil {
			continue
		}
		if _, err := sscan(row[6], &usN); err != nil {
			continue
		}
		switch {
		case usN == baseN:
			ties++
		case usN < baseN:
			losses++
			if baseN-usN > 2 {
				t.Errorf("%s %s: trails baseline by %d sites (%d vs %d)",
					row[0], row[1], baseN-usN, usN, baseN)
			}
		}
	}
	if ties < 40 {
		t.Errorf("only %d of 44 rows tie the baseline (losses: %d)", ties, losses)
	}
}

func TestTable1OursMatchesLowerBoundMostly(t *testing.T) {
	// The paper's own claim about its k column: "In most cases, our
	// algorithm matches the lower bound."
	tbl := Table1()
	match, total := 0, 0
	for _, row := range tbl.Rows {
		var lb, us int
		if _, err := sscan(row[2], &lb); err != nil {
			continue
		}
		if _, err := sscan(row[4], &us); err != nil {
			continue
		}
		total++
		if us == lb {
			match++
		}
	}
	if match*2 < total {
		t.Errorf("ours matches LB in only %d of %d rows", match, total)
	}
}

func TestTable1LBNeverExceeded(t *testing.T) {
	tbl := Table1()
	for _, row := range tbl.Rows {
		var lb, us int
		if _, err := sscan(row[2], &lb); err != nil {
			continue
		}
		if _, err := sscan(row[4], &us); err != nil {
			continue
		}
		if us < lb {
			t.Errorf("%s %s: us k=%d below lower bound %d", row[0], row[1], us, lb)
		}
	}
}

func TestAblationOptionRule(t *testing.T) {
	tbl := AblationOptionRule()
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tbl.Rows))
	}
	// The paper's rule must never be worse in channels than the best
	// ablated rule by more than a small margin... at minimum, all rules
	// must produce feasible architectures for every benchmark.
	for _, row := range tbl.Rows {
		for _, cell := range row[2:] {
			if cell == "-" {
				t.Errorf("rule infeasible on %s", row[0])
			}
		}
	}
}

func TestAblationWrapper(t *testing.T) {
	tbl := AblationWrapper()
	if len(tbl.Rows) == 0 {
		t.Fatal("empty ablation")
	}
	for _, row := range tbl.Rows {
		var combine, lpt int
		if _, err := sscan(row[1], &combine); err != nil {
			t.Fatalf("bad cell %q", row[1])
		}
		if _, err := sscan(row[2], &lpt); err != nil {
			t.Fatalf("bad cell %q", row[2])
		}
		if combine > lpt {
			t.Errorf("width %s: COMBINE %d worse than LPT %d", row[0], combine, lpt)
		}
	}
}

func TestWaferPeriphery(t *testing.T) {
	tbl := WaferPeriphery()
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][5] != "1.000" {
		t.Errorf("1x1 utilization = %s, want 1.000", tbl.Rows[0][5])
	}
}

func TestDepthLabel(t *testing.T) {
	if got := DepthLabel(48 * benchdata.Ki); got != "48K" {
		t.Errorf("DepthLabel = %q", got)
	}
	if got := DepthLabel(benchdata.Mi + benchdata.Mi/4); got != "1.250M" {
		t.Errorf("DepthLabel = %q", got)
	}
}

// sscan parses a single value from a cell.
func sscan(cell string, v interface{}) (int, error) {
	return fmtSscan(cell, v)
}

func fmtSscan(cell string, v interface{}) (int, error) {
	return fmt.Sscan(cell, v)
}
