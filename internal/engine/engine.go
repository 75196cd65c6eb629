// Package engine is the concurrent sweep harness of the repository: it
// fans core.Optimize / core.Result.Rescore jobs across a bounded worker
// pool and streams deterministic, order-stable results back to a reducer.
//
// The paper's two-step algorithm designs one SOC for one tester; a
// production test floor asks fleet-scale questions — every SOC of a
// family, across tester configurations, memory depths, broadcast on/off,
// and cost-model variants (contact yield, manufacturing yield, abort,
// re-test). The engine answers those grids as fast as the hardware
// allows while keeping every output bit-identical to a serial run:
//
//   - Run executes a job list on a pool of Workers goroutines; results are
//     returned (and delivered to the Progress callback) in job order, no
//     matter which worker finishes first, so reducers and golden files
//     never see scheduling nondeterminism. The pool and that ordered
//     delivery are Ordered, which Map and the server's row streams share.
//   - Memo caches the expensive Step 1+2 architecture design keyed on
//     (solver backend, SOC, ATE, TAM options); jobs that differ only in
//     cost-model fields re-score the cached design via Result.Rescore,
//     which is orders of magnitude cheaper than a fresh design.
//   - Grid expands SOC × ATE × cost-model axes into a deterministic job
//     list ordered so that design-key axes vary slowest, maximizing memo
//     locality.
//
// Errors are captured per job: one infeasible grid point (an SOC that
// cannot fit a single site) does not abort the sweep. Cancelling the
// context stops feeding new jobs; already-running jobs finish and
// unstarted jobs report the context error.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"multisite/internal/core"
	"multisite/internal/soc"
	"multisite/internal/tam"
)

// Job is one optimization task: design (or re-score) one SOC against one
// tester and cost-model configuration.
type Job struct {
	// Name labels the job in progress output and result tables.
	Name string
	// SOC is the chip to optimize. Shared SOCs (benchdata.Shared) are
	// safe: designs only read them.
	SOC *soc.SOC
	// Config is the full optimizer configuration, cost model included.
	Config core.Config
	// Solver names the registry backend (internal/solve) that designs the
	// job's Step 1 architecture; empty means the default heuristic. The
	// solver is part of the memo's design key, so jobs differing only in
	// backend never share a cached design.
	Solver string
}

// JobResult is the outcome of one job. Exactly one of Err or the result
// fields is meaningful. It holds no curve: re-score Design under
// Job.Config to draw one.
type JobResult struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Job echoes the job.
	Job Job
	// Design is the design for the job's design key (SOC, ATE, TAM), as
	// the backend returned it and the Memo keeps it: shared across jobs
	// and read-only. Its Best is scored under the design-time cost model,
	// not Job.Config's; use the Best below.
	Design *core.Result
	// Best is the optimal evaluation under Job.Config's objective.
	Best core.SiteEval
	// Err is the job's failure, a context error if the sweep was
	// cancelled before the job started, or nil.
	Err error
}

// BestArch returns the redistributed architecture at Best.Sites, or nil
// for a failed job. It builds the architecture from the design's Step 2
// snapshot on each call (core.Result.ArchAt).
func (r *JobResult) BestArch() *tam.Architecture {
	if r.Err != nil || r.Design == nil || r.Best.Sites == 0 {
		return nil
	}
	return r.Design.ArchAt(r.Best.Sites)
}

// Progress reports one completed job. Callbacks are invoked in job order
// (index 0, 1, 2, …) regardless of completion order, from whichever worker
// goroutine happens to close each gap, one at a time.
type Progress struct {
	// Done is the number of jobs delivered so far, including this one.
	Done int
	// Total is the job count of the sweep.
	Total int
	// Result is the completed job.
	Result JobResult
}

// Options tunes a Run.
type Options struct {
	// Workers bounds the worker pool; 0 or negative means GOMAXPROCS.
	Workers int
	// Memo shares Step 1+2 designs across jobs (and across Runs, when
	// the same Memo is passed to several). Nil uses a fresh per-Run memo,
	// which still dedupes design keys within the run.
	Memo *Memo
	// Progress, when non-nil, receives each completed job in job order.
	Progress func(Progress)
}

// Run executes the jobs on a bounded worker pool and returns one result
// per job, in job order. Per-job failures are captured in JobResult.Err,
// never returned as Run's error. The returned error is non-nil only when
// ctx was cancelled, in which case unstarted jobs carry the context error
// as their Err. Results are deterministic: for a given job list the
// returned slice is identical for every worker count.
func Run(ctx context.Context, jobs []Job, opts Options) ([]JobResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	memo := opts.Memo
	if memo == nil {
		memo = NewMemo()
	}
	results := make([]JobResult, len(jobs))
	done := 0
	deliver := func(i int, r JobResult) {
		results[i] = r
		done = i + 1
		if opts.Progress != nil {
			opts.Progress(Progress{Done: done, Total: len(jobs), Result: r})
		}
	}
	err := Ordered(ctx, len(jobs), opts.Workers, func(ctx context.Context, i int) (JobResult, error) {
		return runJob(ctx, i, jobs[i], memo), nil
	}, func(i int, r JobResult, err error, _ bool) error {
		if err != nil { // runJob panicked
			r = JobResult{Index: i, Job: jobs[i], Err: err}
		}
		deliver(i, r)
		return nil
	})
	if err != nil {
		// Jobs the pool never started: report the cancellation in order,
		// so the Progress stream still sees every job exactly once.
		for i := done; i < len(jobs); i++ {
			deliver(i, JobResult{Index: i, Job: jobs[i], Err: err})
		}
	}
	return results, ctx.Err()
}

// runJob executes one job, capturing its error.
func runJob(ctx context.Context, i int, j Job, memo *Memo) (r JobResult) {
	r = JobResult{Index: i, Job: j}
	if err := ctx.Err(); err != nil {
		r.Err = err
		return r
	}
	if err := j.Config.ATE.Validate(); err != nil {
		r.Err = err
		return r
	}
	if err := j.Config.Probe.Validate(); err != nil {
		r.Err = err
		return r
	}
	design, err := memo.DesignSolverCtx(ctx, j.Solver, j.SOC, j.Config)
	if err != nil {
		r.Err = err
		return r
	}
	r.Design = design
	r.Best, _, _ = design.Rescore(j.Config, nil, nil)
	return r
}

// Map runs fn over the indices 0..n-1 on a bounded worker pool and returns
// the results in index order — the generic sibling of Run for experiment
// rows that are not core.Optimize calls (baseline designs, exact solves,
// family sweeps). Per-index errors are collected; the first error by index
// is returned alongside the full result slice. A cancelled context leaves
// unstarted indices at their zero value with the context error recorded.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	var first error
	err := Ordered(ctx, n, workers, fn, func(i int, v T, err error, _ bool) error {
		out[i] = v
		if first == nil {
			first = err
		}
		return nil
	})
	if first == nil {
		first = err
	}
	return out, first
}

// Ordered runs fn over the indices 0..n-1 on a bounded worker pool and
// hands each outcome to emit in index order, as soon as every lower index
// has been emitted — the gap-closing delivery a streamed sweep needs,
// whichever worker finishes first. emit runs one call at a time, on a
// worker goroutine; a panicking fn reaches it as an error. Its ready
// argument reports whether index i+1 was already done when emit was
// called, so that, unless emit fails, the next call follows at once; it
// is false for the last index and whenever i+1 is still computing. A
// stream writer flushes only where ready is false: a burst of finished
// indices then leaves in one write, and no emitted index waits on one
// that is not done. The first error emit returns stops further emits,
// cancels the indices not yet started, and is returned. A cancelled
// context stops the pool from starting indices: started ones are still
// emitted, the unstarted suffix never is, and Ordered returns the
// context's error.
func Ordered[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error), emit func(i int, v T, err error, ready bool) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		vals     = make([]T, n)
		errs     = make([]error, n)
		done     = make([]bool, n)
		next     int
		emitting bool // one worker at a time drains the ready prefix
		emitErr  error
	)
	// deliver records index i; the worker that finds the next index ready
	// and nobody emitting becomes the emitter and drains the ready prefix,
	// calling emit outside the lock so the other workers keep computing.
	deliver := func(i int, v T, err error) {
		mu.Lock()
		vals[i], errs[i], done[i] = v, err, true
		if emitting {
			mu.Unlock() // the emitter re-checks done[next] after each emit
			return
		}
		emitting = true
		for emitErr == nil && next < n && done[next] {
			j, v, err := next, vals[next], errs[next]
			var zero T
			vals[j] = zero // emitted: let the value go
			next++
			ready := next < n && done[next]
			mu.Unlock()
			err = emit(j, v, err, ready)
			mu.Lock()
			if err != nil {
				emitErr = err
				cancel()
			}
		}
		emitting = false
		mu.Unlock()
	}

	// Indices start in order, so the started ones are always a prefix and
	// each of them is delivered: no gap is ever left open.
	feed := make(chan int)
	go func() {
		defer close(feed)
		for i := 0; i < n && poolCtx.Err() == nil; i++ {
			select {
			case feed <- i:
			case <-poolCtx.Done():
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				v, err := safeCall(poolCtx, i, fn)
				deliver(i, v, err)
			}
		}()
	}
	wg.Wait()

	if emitErr != nil {
		return emitErr
	}
	if next < n {
		return ctx.Err()
	}
	return nil
}

func safeCall[T any](ctx context.Context, i int, fn func(context.Context, int) (T, error)) (out T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("engine: index %d: panic: %v", i, p)
		}
	}()
	return fn(ctx, i)
}
