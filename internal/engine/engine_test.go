package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/core"
	"multisite/internal/soc"
)

// testGrid is a small but representative sweep: one SOC, two depths, two
// broadcast variants, three contact yields with re-testing — 12 jobs over
// 4 design keys.
func testGrid() Grid {
	return Grid{
		SOCs:          []*soc.SOC{benchdata.Shared("d695")},
		Channels:      []int{256},
		Depths:        []int64{48 * benchdata.Ki, 64 * benchdata.Ki},
		ClockHz:       5e6,
		Broadcast:     []bool{false, true},
		Probe:         ate.DefaultProbeStation(),
		ContactYields: []float64{1, 0.999, 0.99},
		Retest:        []bool{true},
	}
}

// render flattens results into a byte-comparable transcript.
func render(results []JobResult) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%d %s", r.Index, r.Job.Name)
		if r.Err != nil {
			fmt.Fprintf(&b, " err=%v\n", r.Err)
			continue
		}
		fmt.Fprintf(&b, " nmax=%d best=%+v\n", r.Design.MaxSites, r.Best)
		curve, step1Curve := rescored(r.Design, r.Job.Config)
		for i, e := range curve {
			fmt.Fprintf(&b, "  n=%d dth=%v du=%v s1=%v\n",
				i+1, e.Throughput, e.UniqueThroughput, step1Curve[i].Throughput)
		}
	}
	return b.String()
}

// rescored fills both of design's curves under cfg.
func rescored(design *core.Result, cfg core.Config) (curve, step1Curve []core.SiteEval) {
	curve = make([]core.SiteEval, design.MaxSites)
	step1Curve = make([]core.SiteEval, design.MaxSites)
	design.Rescore(cfg, curve, step1Curve)
	return curve, step1Curve
}

// TestRunDeterministicAcrossWorkers is the engine's core contract: the
// result stream is byte-identical for every worker count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	jobs := testGrid().Jobs()
	if len(jobs) != 12 {
		t.Fatalf("grid expanded to %d jobs, want 12", len(jobs))
	}
	var want string
	for _, workers := range []int{1, 2, 4, 8, 32} {
		results, err := Run(context.Background(), jobs, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := render(results)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d: results differ from workers=1:\n%s\n--- vs ---\n%s", workers, got, want)
		}
	}
}

// TestRunMatchesSerialOptimize pins the memoized re-score path to the
// plain core.Optimize path: same curves, same best, bit for bit.
func TestRunMatchesSerialOptimize(t *testing.T) {
	jobs := testGrid().Jobs()
	results, err := Run(context.Background(), jobs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.Job.Name, r.Err)
		}
		res, err := core.Optimize(r.Job.SOC, r.Job.Config)
		if err != nil {
			t.Fatalf("serial %s: %v", r.Job.Name, err)
		}
		curve, step1Curve := rescored(r.Design, r.Job.Config)
		wantCurve, wantStep1 := rescored(res, res.Config)
		if len(curve) != len(wantCurve) {
			t.Fatalf("job %s: curve length %d, serial %d", r.Job.Name, len(curve), len(wantCurve))
		}
		for i := range curve {
			if curve[i] != wantCurve[i] {
				t.Errorf("job %s n=%d: engine %+v, serial %+v", r.Job.Name, i+1, curve[i], wantCurve[i])
			}
			if step1Curve[i] != wantStep1[i] {
				t.Errorf("job %s n=%d: engine step1 %+v, serial %+v", r.Job.Name, i+1, step1Curve[i], wantStep1[i])
			}
		}
		if r.Best != res.Best {
			t.Errorf("job %s: engine best %+v, serial best %+v", r.Job.Name, r.Best, res.Best)
		}
	}
}

// TestMemoSharesDesigns checks that cost-model variants hit the cached
// design: 12 jobs over 4 design keys must run exactly 4 optimizations.
func TestMemoSharesDesigns(t *testing.T) {
	memo := NewMemo()
	jobs := testGrid().Jobs()
	if _, err := Run(context.Background(), jobs, Options{Workers: 4, Memo: memo}); err != nil {
		t.Fatal(err)
	}
	requests, misses := memo.Stats()
	if requests != 12 || misses != 4 {
		t.Errorf("memo stats: %d requests, %d misses; want 12, 4", requests, misses)
	}
	// A second run over the same memo designs nothing new.
	if _, err := Run(context.Background(), jobs, Options{Workers: 2, Memo: memo}); err != nil {
		t.Fatal(err)
	}
	requests, misses = memo.Stats()
	if requests != 24 || misses != 4 {
		t.Errorf("memo stats after rerun: %d requests, %d misses; want 24, 4", requests, misses)
	}
}

// TestProgressOrdered checks that the progress stream is delivered in job
// order with monotonically complete Done counts, at any worker count.
func TestProgressOrdered(t *testing.T) {
	jobs := testGrid().Jobs()
	var mu sync.Mutex
	var seen []int
	_, err := Run(context.Background(), jobs, Options{
		Workers: 8,
		Progress: func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			if p.Total != len(jobs) || p.Done != p.Result.Index+1 {
				t.Errorf("progress %d/%d for index %d", p.Done, p.Total, p.Result.Index)
			}
			seen = append(seen, p.Result.Index)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("progress delivered %d of %d jobs", len(seen), len(jobs))
	}
	for i, idx := range seen {
		if idx != i {
			t.Fatalf("progress out of order at %d: %v", i, seen)
		}
	}
}

// TestPerJobErrorCapture: an infeasible job (SOC cannot fit one site)
// reports its error without failing the sweep.
func TestPerJobErrorCapture(t *testing.T) {
	d695 := benchdata.Shared("d695")
	jobs := []Job{
		{Name: "infeasible", SOC: d695, Config: core.Config{
			ATE:   ate.ATE{Channels: 2, Depth: 64 * benchdata.Ki, ClockHz: 5e6},
			Probe: ate.DefaultProbeStation(),
		}},
		{Name: "bad-ate", SOC: d695, Config: core.Config{
			ATE:   ate.ATE{Channels: 256, Depth: 0, ClockHz: 5e6},
			Probe: ate.DefaultProbeStation(),
		}},
		{Name: "bad-probe", SOC: d695, Config: core.Config{
			ATE:   ate.ATE{Channels: 256, Depth: 64 * benchdata.Ki, ClockHz: 5e6},
			Probe: ate.ProbeStation{IndexTime: -1},
		}},
		{Name: "ok", SOC: d695, Config: core.Config{
			ATE:   ate.ATE{Channels: 256, Depth: 64 * benchdata.Ki, ClockHz: 5e6},
			Probe: ate.DefaultProbeStation(),
		}},
	}
	results, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if results[i].Err == nil {
			t.Errorf("job %s: expected error, got none", jobs[i].Name)
		}
	}
	if results[3].Err != nil {
		t.Errorf("job ok: unexpected error %v", results[3].Err)
	}
	if results[3].Best.Sites == 0 {
		t.Errorf("job ok: no best evaluation")
	}
}

// TestCancellation: a cancelled context stops the sweep; unstarted jobs
// carry the context error and the progress stream still covers every job.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := testGrid().Jobs()
	var mu sync.Mutex
	delivered := 0
	results, err := Run(ctx, jobs, Options{
		Workers: 1,
		Progress: func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			delivered++
			if p.Done == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if delivered != len(jobs) {
		t.Errorf("progress covered %d of %d jobs", delivered, len(jobs))
	}
	cancelled := 0
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no job reported the cancellation")
	}
}

// TestMapOrderStable: Map returns results in index order whatever the
// worker count.
func TestMapOrderStable(t *testing.T) {
	out, err := Map(context.Background(), 100, 8, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapError: the first error by index is returned; other results are
// still populated.
func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(context.Background(), 10, 4, func(_ context.Context, i int) (int, error) {
		if i == 3 || i == 7 {
			return 0, fmt.Errorf("index %d: %w", i, boom)
		}
		return i, nil
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "index 3") {
		t.Fatalf("err = %v, want first-by-index boom", err)
	}
	if out[9] != 9 {
		t.Fatalf("out[9] = %d, want 9", out[9])
	}
}

// TestMapPanicCapture: a panicking index becomes an error, not a crash.
func TestMapPanicCapture(t *testing.T) {
	_, err := Map(context.Background(), 4, 2, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			panic("kaboom")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want captured panic", err)
	}
}

// TestGridNamesUniqueAndStable: expansion order and names are fixed.
func TestGridNamesUniqueAndStable(t *testing.T) {
	jobs := testGrid().Jobs()
	if got := testGrid().Size(); got != len(jobs) {
		t.Fatalf("Size() = %d, Jobs() = %d", got, len(jobs))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.Name] {
			t.Errorf("duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
	}
	// Design-key axes must vary slower than cost-model axes.
	want := []string{
		"d695/D48K/nobc/pc1",
		"d695/D48K/nobc/pc0.999",
		"d695/D48K/nobc/pc0.99",
		"d695/D48K/bc/pc1",
	}
	for i, name := range want {
		if jobs[i].Name != name {
			t.Errorf("jobs[%d].Name = %q, want %q", i, jobs[i].Name, name)
		}
	}
}

// TestRunEmptyJobs: no jobs is a no-op, not a hang.
func TestRunEmptyJobs(t *testing.T) {
	results, err := Run(context.Background(), nil, Options{Workers: 4})
	if err != nil || len(results) != 0 {
		t.Fatalf("Run(nil) = %v, %v", results, err)
	}
}

func TestFormatDepth(t *testing.T) {
	cases := map[int64]string{
		7 * benchdata.Mi:  "7M",
		48 * benchdata.Ki: "48K",
		1000:              "1000",
		benchdata.Mi + 1:  fmt.Sprint(benchdata.Mi + 1),
	}
	for in, want := range cases {
		if got := FormatDepth(in); got != want {
			t.Errorf("FormatDepth(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestRanges(t *testing.T) {
	if got := IntRange(512, 1024, 256); len(got) != 3 || got[2] != 1024 {
		t.Errorf("IntRange = %v", got)
	}
	if got := DepthRange(5, 14, 3); len(got) != 4 || got[3] != 14 {
		t.Errorf("DepthRange = %v", got)
	}
	if got := IntRange(10, 1, 1); got != nil {
		t.Errorf("IntRange inverted = %v", got)
	}
}

// TestOrderedEmitOrder: emit sees every index exactly once, in index
// order, whatever order randomized delays make the workers finish in.
func TestOrderedEmitOrder(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 8} {
		rng := rand.New(rand.NewSource(int64(workers)))
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
		}
		var got []int
		err := Ordered(context.Background(), n, workers, func(_ context.Context, i int) (int, error) {
			time.Sleep(delays[i])
			return i * i, nil
		}, func(i, v int, err error, _ bool) error {
			if err != nil || v != i*i {
				t.Errorf("workers=%d: emit(%d, %d, %v)", workers, i, v, err)
			}
			got = append(got, i)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: emitted %d of %d", workers, len(got), n)
		}
		for i, idx := range got {
			if idx != i {
				t.Fatalf("workers=%d: emit out of order at %d: %v", workers, i, got)
			}
		}
	}
}

// TestOrderedEmitErrorStops: the first emit error ends the emits, cancels
// the work in flight, starts nothing more, and is what Ordered returns.
func TestOrderedEmitErrorStops(t *testing.T) {
	const n, workers, stop = 100, 4, 5
	boom := errors.New("boom")
	var started atomic.Int64
	var emitted []int
	err := Ordered(context.Background(), n, workers, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i <= stop {
			return i, nil
		}
		// Later indices wait for the cancellation the emit error causes.
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(10 * time.Second):
			t.Errorf("index %d was never cancelled", i)
			return i, nil
		}
	}, func(i, _ int, _ error, _ bool) error {
		emitted = append(emitted, i)
		if i == stop {
			return fmt.Errorf("emit %d: %w", i, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if len(emitted) != stop+1 || emitted[stop] != stop {
		t.Errorf("emitted %v, want 0..%d", emitted, stop)
	}
	if s := started.Load(); s > stop+1+workers {
		t.Errorf("%d indices started, want at most %d: the rest must stay unstarted", s, stop+1+workers)
	}
}

// TestOrderedPanicReachesEmit: a panicking fn is an error at its own
// index, and the indices around it are delivered as usual.
func TestOrderedPanicReachesEmit(t *testing.T) {
	var errs []error
	err := Ordered(context.Background(), 4, 2, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			panic("kaboom")
		}
		return i, nil
	}, func(i, _ int, err error, _ bool) error {
		errs = append(errs, err)
		return nil
	})
	if err != nil {
		t.Fatalf("Ordered = %v, want nil (emit accepted every index)", err)
	}
	if len(errs) != 4 {
		t.Fatalf("emitted %d of 4", len(errs))
	}
	for i, e := range errs {
		if (i == 2) != (e != nil) {
			t.Errorf("index %d: err = %v", i, e)
		}
	}
	if !strings.Contains(errs[2].Error(), "kaboom") {
		t.Errorf("panic error %q does not carry the panic value", errs[2])
	}
}

// TestOrderedCancelledContext: cancelling the caller's context emits
// exactly the indices that started — a prefix — never the unstarted
// suffix, and Ordered returns the context's error. A context cancelled
// up front starts nothing.
func TestOrderedCancelledContext(t *testing.T) {
	const n, cancelAt = 50, 3
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		started := map[int]bool{}
		var emitted []int
		err := Ordered(ctx, n, workers, func(ctx context.Context, i int) (int, error) {
			mu.Lock()
			started[i] = true
			mu.Unlock()
			if i > cancelAt {
				// Hold the pool busy until the cancellation lands.
				<-ctx.Done()
			}
			return i, nil
		}, func(i, _ int, _ error, _ bool) error {
			emitted = append(emitted, i)
			if i == cancelAt {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(emitted) != len(started) || len(emitted) >= n || len(emitted) <= cancelAt {
			t.Errorf("workers=%d: emitted %d, started %d of %d", workers, len(emitted), len(started), n)
		}
		for i, idx := range emitted {
			if idx != i || !started[i] {
				t.Fatalf("workers=%d: emitted %v is not the started prefix", workers, emitted)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Ordered(ctx, n, 4, func(_ context.Context, i int) (int, error) {
		t.Errorf("index %d started under a cancelled context", i)
		return i, nil
	}, func(int, int, error, bool) error {
		calls++
		return nil
	})
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Errorf("pre-cancelled: err = %v, %d emits; want context.Canceled and none", err, calls)
	}
}

// TestOrderedReadyFlag: emit's ready flag is true exactly when the next
// index is already done. Index 0 waits until 1 and 2 are done and 3 and 4
// have started, then 3 finishes before 4: the emits see 1 and 2 done, 3
// computing, 4 computing, and no index after 4. With one worker no index
// starts before the one before it is emitted, so ready is never true.
func TestOrderedReadyFlag(t *testing.T) {
	const n = 5
	var (
		release   [n]chan struct{}
		started34 sync.WaitGroup
	)
	for _, i := range []int{0, 3, 4} {
		release[i] = make(chan struct{})
	}
	started34.Add(2)
	var got []bool
	done := make(chan error)
	go func() {
		done <- Ordered(context.Background(), n, 3, func(_ context.Context, i int) (int, error) {
			if i >= 3 {
				started34.Done()
			}
			if release[i] != nil {
				<-release[i]
			}
			return i, nil
		}, func(i, _ int, _ error, ready bool) error {
			got = append(got, ready)
			if i == 2 {
				close(release[3]) // 4 is still computing
			}
			if i == 3 {
				close(release[4])
			}
			return nil
		})
	}()
	// A worker takes 3 or 4 only after delivering the index it held, and
	// 0 holds the third worker: once both started, 1 and 2 are done.
	started34.Wait()
	close(release[0])
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, true, false, false, false}; !slices.Equal(got, want) {
		t.Errorf("ready flags %v, want %v", got, want)
	}

	got = nil
	err := Ordered(context.Background(), n, 1, func(_ context.Context, i int) (int, error) {
		return i, nil
	}, func(_, _ int, _ error, ready bool) error {
		got = append(got, ready)
		return nil
	})
	if err != nil || slices.Contains(got, true) || len(got) != n {
		t.Errorf("one worker: ready flags %v, %v; want %d false", got, err, n)
	}
}
