package server

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"multisite/internal/benchdata"
	"multisite/internal/jobs"
	"multisite/internal/soc"
)

// computeEntry runs one scenario through computeSnapshot, as the handlers
// do, and returns the result-cache entry it produced.
func computeEntry(t *testing.T, s *Server, req ScenarioRequest, timeout time.Duration) cachedResult {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	o, _, err := parseOp(jobs.TypeOptimize, body)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, _, err := s.computeSnapshot(ctx, s.memoFor(o), o.chip, o.solvers[0], o.key, o.cfg)
	if err != nil {
		t.Fatalf("%s under %s: %v", req.SOC, o.solvers[0], err)
	}
	return res
}

// checkView fails unless an entry's view equals decoding its bytes, which
// is what every handler read before the view was kept in the entry.
func checkView(t *testing.T, res cachedResult) {
	t.Helper()
	var decoded snapshotView
	if err := json.Unmarshal(res.data, &decoded); err != nil {
		t.Fatalf("entry bytes do not decode: %v", err)
	}
	if !reflect.DeepEqual(res.view, decoded) {
		t.Errorf("view %+v, decoded %+v", res.view, decoded)
	}
}

// TestCachedViewMatchesDecode pins that reading the view kept beside an
// entry's bytes, instead of decoding them, cannot change a row byte or a
// header. It covers every built-in chip under the heuristic and the
// baseline, each re-scored under several cost models, plus a degraded and
// a proven-optimal portfolio result.
func TestCachedViewMatchesDecode(t *testing.T) {
	s := New(Options{Breaker: lenientBreaker()})
	indexTime := 0.3
	costModels := []ScenarioRequest{
		{},
		{ContactYield: 0.999, Retest: true},
		{Yield: 0.9, AbortOnFail: true},
		{ContactYield: 0.99, Yield: 0.95, Retest: true, AbortOnFail: true, IndexTime: &indexTime, ControlPins: -1},
	}
	for _, name := range benchdata.Names() {
		for _, solver := range []string{"heuristic", "baseline"} {
			for _, req := range costModels {
				req.SOC, req.Solver = name, solver
				checkView(t, computeEntry(t, s, req, 0))
			}
		}
	}

	optimal := computeEntry(t, s, ScenarioRequest{SOC: "d695", Solver: "portfolio"}, 0)
	if !optimal.view.Optimal || optimal.view.Degraded {
		t.Fatalf("d695 portfolio view %+v, want optimal and not degraded", optimal.view)
	}
	checkView(t, optimal)

	text := soc.WriteString(benchdata.Adversarial())
	degraded := computeEntry(t, s, ScenarioRequest{SOCText: text, Solver: "portfolio", Channels: 256, Depth: 16000},
		300*time.Millisecond)
	if !degraded.view.Degraded || degraded.view.Optimal {
		t.Fatalf("adversarial portfolio view %+v under 300ms, want degraded and not optimal", degraded.view)
	}
	checkView(t, degraded)
}
