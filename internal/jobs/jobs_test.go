package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multisite/internal/diskcache"
)

// errTransient marks retryable failures in these tests, mirroring
// solve.ErrTransient in the serving layer.
var errTransient = errors.New("transient")

func retryable(err error) bool { return errors.Is(err, errTransient) }

// rowRunner is the standard deterministic test runner: n rows derived
// from the spec bytes, so equal specs always produce equal results.
func rowRunner(n int) Runner {
	return func(ctx context.Context, spec Spec, sink Sink) error {
		sink.SetTotal(n)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := sink.Emit(fmt.Appendf(nil, `{"row":%d,"spec":%q}`, i, spec.Request)); err != nil {
				return err
			}
		}
		return nil
	}
}

func openM(t *testing.T, dir string, opts Options) *Manager {
	t.Helper()
	cas, err := diskcache.Open(diskcache.Options{Dir: filepath.Join(dir, "cas")})
	if err != nil {
		t.Fatal(err)
	}
	opts.Dir = filepath.Join(dir, "jobs")
	opts.CAS = cas
	if opts.Retryable == nil {
		opts.Retryable = retryable
	}
	if opts.Backoff == 0 {
		opts.Backoff = 5 * time.Millisecond
	}
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func waitState(t *testing.T, m *Manager, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if snap.State == want {
			return snap
		}
		if snap.State == StateFailed && want != StateFailed {
			t.Fatalf("job %s failed: %s", id, snap.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	snap, _ := m.Get(id)
	t.Fatalf("job %s stuck in %s (want %s)", id, snap.State, want)
	return Snapshot{}
}

func collectResult(t *testing.T, m *Manager, id string, offset int) ([]string, Snapshot) {
	t.Helper()
	var rows []string
	snap, err := m.StreamResult(context.Background(), id, offset, func(row []byte) error {
		rows = append(rows, string(row))
		return nil
	})
	if err != nil {
		t.Fatalf("StreamResult(%s): %v", id, err)
	}
	return rows, snap
}

func TestEnqueueRunComplete(t *testing.T) {
	m := openM(t, t.TempDir(), Options{Runner: rowRunner(5)})
	defer m.Close(context.Background())
	<-m.Ready()
	snap, err := m.Enqueue(Spec{Type: TypeSweep, Request: []byte(`{"soc":"x"}`)})
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StatePending || snap.ID == "" {
		t.Fatalf("enqueue snapshot = %+v", snap)
	}
	done := waitState(t, m, snap.ID, StateDone)
	if done.RowsDone != 5 || done.RowsTotal != 5 || done.ResultKey == "" {
		t.Errorf("done snapshot = %+v", done)
	}
	rows, _ := collectResult(t, m, snap.ID, 0)
	if len(rows) != 5 || !strings.Contains(rows[3], `"row":3`) {
		t.Errorf("rows = %q", rows)
	}
	// The offset cursor serves only the tail.
	tail, _ := collectResult(t, m, snap.ID, 3)
	if len(tail) != 2 || tail[0] != rows[3] || tail[1] != rows[4] {
		t.Errorf("offset tail = %q, want rows 3..4", tail)
	}
	if st := m.Stats(); st.Enqueued != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStreamFollowsLiveJob(t *testing.T) {
	release := make(chan struct{})
	m := openM(t, t.TempDir(), Options{Runner: func(ctx context.Context, spec Spec, sink Sink) error {
		for i := 0; i < 4; i++ {
			if i == 2 {
				select {
				case <-release:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			if err := sink.Emit(fmt.Appendf(nil, `{"row":%d}`, i)); err != nil {
				return err
			}
		}
		return nil
	}})
	defer m.Close(context.Background())
	<-m.Ready()
	snap, err := m.Enqueue(Spec{Type: TypeSweep, Request: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	type streamOut struct {
		rows []string
		err  error
	}
	got := make(chan streamOut, 1)
	go func() {
		var rows []string
		_, err := m.StreamResult(context.Background(), snap.ID, 0, func(row []byte) error {
			rows = append(rows, string(row))
			return nil
		})
		got <- streamOut{rows, err}
	}()
	// The streamer must be following the live job; release the gate and
	// it should deliver all four rows and finish.
	time.Sleep(20 * time.Millisecond)
	close(release)
	select {
	case out := <-got:
		if out.err != nil {
			t.Fatalf("StreamResult: %v", out.err)
		}
		if len(out.rows) != 4 {
			t.Errorf("streamed %d rows, want 4: %q", len(out.rows), out.rows)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live stream never finished")
	}
}

func TestRetryTransientThenSucceed(t *testing.T) {
	var calls atomic.Int64
	m := openM(t, t.TempDir(), Options{Runner: func(ctx context.Context, spec Spec, sink Sink) error {
		if calls.Add(1) < 3 {
			return fmt.Errorf("backend hiccup: %w", errTransient)
		}
		return rowRunner(2)(ctx, spec, sink)
	}})
	defer m.Close(context.Background())
	<-m.Ready()
	snap, err := m.Enqueue(Spec{Type: TypeOptimize, Request: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, snap.ID, StateDone)
	if done.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", done.Attempts)
	}
	if st := m.Stats(); st.Retried != 2 {
		t.Errorf("Retried = %d, want 2", st.Retried)
	}
}

func TestInputErrorFailsPermanently(t *testing.T) {
	var calls atomic.Int64
	m := openM(t, t.TempDir(), Options{Runner: func(ctx context.Context, spec Spec, sink Sink) error {
		calls.Add(1)
		return errors.New("soc_text: parse error")
	}})
	defer m.Close(context.Background())
	<-m.Ready()
	snap, err := m.Enqueue(Spec{Type: TypeOptimize, Request: []byte(`{"bad":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, m, snap.ID, StateFailed)
	if !strings.Contains(failed.Error, "parse error") {
		t.Errorf("failure message = %q", failed.Error)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("input error was retried: %d calls", n)
	}
}

func TestRetryBudgetExhausts(t *testing.T) {
	m := openM(t, t.TempDir(), Options{
		MaxAttempts: 3,
		Runner: func(ctx context.Context, spec Spec, sink Sink) error {
			return errTransient
		},
	})
	defer m.Close(context.Background())
	<-m.Ready()
	snap, err := m.Enqueue(Spec{Type: TypeCompare, Request: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, m, snap.ID, StateFailed)
	if failed.Attempts != 3 || !strings.Contains(failed.Error, "retry budget exhausted") {
		t.Errorf("failed snapshot = %+v", failed)
	}
}

func TestPanickingRunnerFailsJobNotPool(t *testing.T) {
	var calls atomic.Int64
	m := openM(t, t.TempDir(), Options{Runner: func(ctx context.Context, spec Spec, sink Sink) error {
		if calls.Add(1) == 1 {
			panic("poisoned spec")
		}
		return rowRunner(1)(ctx, spec, sink)
	}})
	defer m.Close(context.Background())
	<-m.Ready()
	bad, err := m.Enqueue(Spec{Type: TypeOptimize, Request: []byte(`{"poison":true}`)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, bad.ID, StateFailed)
	// The pool survives: a later job still runs to completion.
	good, err := m.Enqueue(Spec{Type: TypeOptimize, Request: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, good.ID, StateDone)
}

// TestCrashRestartResumes is the package-level half of the acceptance
// contract: an abrupt death mid-job loses no accepted job, the restart
// re-runs it, and the result bytes equal a never-killed run's.
func TestCrashRestartResumes(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 8)
	gate := make(chan struct{})
	m1 := openM(t, dir, Options{Runner: func(ctx context.Context, spec Spec, sink Sink) error {
		started <- struct{}{}
		select {
		case <-gate: // never closed: m1's attempt hangs like a mid-sweep crash
		case <-ctx.Done():
		}
		return ctx.Err()
	}})
	<-m1.Ready()
	snap, err := m1.Enqueue(Spec{Type: TypeSweep, Request: []byte(`{"soc":"d695","depths":"1:3:1"}`)})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the job is mid-attempt
	m1.CloseAbrupt()

	// Restart over the same directory: replay must find the accepted
	// job and re-run it to completion.
	m2 := openM(t, dir, Options{Runner: rowRunner(3)})
	<-m2.Ready()
	if st := m2.Stats(); st.Recovered != 1 {
		t.Errorf("Recovered = %d, want 1", st.Recovered)
	}
	done := waitState(t, m2, snap.ID, StateDone)
	rows, _ := collectResult(t, m2, snap.ID, 0)
	m2.Close(context.Background())

	// The never-killed control run, same spec, fresh directory.
	m3 := openM(t, t.TempDir(), Options{Runner: rowRunner(3)})
	<-m3.Ready()
	ctrl, err := m3.Enqueue(Spec{Type: TypeSweep, Request: []byte(`{"soc":"d695","depths":"1:3:1"}`)})
	if err != nil {
		t.Fatal(err)
	}
	ctrlDone := waitState(t, m3, ctrl.ID, StateDone)
	ctrlRows, _ := collectResult(t, m3, ctrl.ID, 0)
	m3.Close(context.Background())

	if strings.Join(rows, "\n") != strings.Join(ctrlRows, "\n") {
		t.Errorf("resumed result differs from uninterrupted run:\n%q\nvs\n%q", rows, ctrlRows)
	}
	if done.ResultKey != ctrlDone.ResultKey {
		t.Errorf("result CAS keys differ: %s vs %s", done.ResultKey, ctrlDone.ResultKey)
	}
}

// TestCompletedJobSurvivesRestart: terminal jobs reattach to their CAS
// blobs without re-running.
func TestCompletedJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	m1 := openM(t, dir, Options{Runner: rowRunner(4)})
	<-m1.Ready()
	snap, err := m1.Enqueue(Spec{Type: TypeSweep, Request: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, snap.ID, StateDone)
	rows1, _ := collectResult(t, m1, snap.ID, 0)
	m1.Close(context.Background())

	var reran atomic.Int64
	m2 := openM(t, dir, Options{Runner: func(ctx context.Context, spec Spec, sink Sink) error {
		reran.Add(1)
		return rowRunner(4)(ctx, spec, sink)
	}})
	<-m2.Ready()
	defer m2.Close(context.Background())
	got, ok := m2.Get(snap.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("restarted job = %+v, %v", got, ok)
	}
	rows2, _ := collectResult(t, m2, snap.ID, 0)
	if strings.Join(rows1, "\n") != strings.Join(rows2, "\n") {
		t.Errorf("reattached result differs")
	}
	if reran.Load() != 0 {
		t.Errorf("completed job re-ran %d times", reran.Load())
	}
}

// TestFailedJobRowsSurviveRestart: a failed job's rows_done and
// rows_total are its last attempt's, before and after a restart and a
// journal rotation, not a progress record an earlier attempt left.
func TestFailedJobRowsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	m1 := openM(t, dir, Options{Runner: func(ctx context.Context, spec Spec, sink Sink) error {
		// The first attempt passes a progress record, then fails
		// transiently; the second fails for good after fewer rows.
		rows, cause := progressEvery+6, fmt.Errorf("backend hiccup: %w", errTransient)
		if calls.Add(1) > 1 {
			rows, cause = 10, errors.New("soc_text: parse error")
		}
		sink.SetTotal(rows)
		for i := 0; i < rows; i++ {
			if err := sink.Emit(fmt.Appendf(nil, `{"row":%d}`, i)); err != nil {
				return err
			}
		}
		return cause
	}})
	<-m1.Ready()
	snap, err := m1.Enqueue(Spec{Type: TypeSweep, Request: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, m1, snap.ID, StateFailed)
	m1.Close(context.Background())
	if failed.Attempts != 2 || failed.RowsDone != 10 || failed.RowsTotal != 10 {
		t.Fatalf("failed snapshot = %+v; want 2 attempts, rows 10/10", failed)
	}

	reopen := func(step string) *Manager {
		t.Helper()
		m := openM(t, dir, Options{Runner: rowRunner(1)})
		<-m.Ready()
		got, ok := m.Get(snap.ID)
		if !ok || got.State != StateFailed || got.RowsDone != 10 || got.RowsTotal != 10 {
			t.Errorf("after %s: snapshot = %+v, %v; want failed, rows 10/10", step, got, ok)
		}
		return m
	}
	m2 := reopen("a restart")
	m2.mu.Lock()
	err = m2.j.rotate(m2.liveRecordsLocked())
	m2.mu.Unlock()
	m2.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	reopen("a rotation and a restart").Close(context.Background())
}

// TestCorruptResultRequeuedNeverServed: a bit-flipped CAS blob is
// quarantined at replay and the job recomputed.
func TestCorruptResultRequeuedNeverServed(t *testing.T) {
	dir := t.TempDir()
	m1 := openM(t, dir, Options{Runner: rowRunner(2)})
	<-m1.Ready()
	snap, err := m1.Enqueue(Spec{Type: TypeOptimize, Request: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m1, snap.ID, StateDone)
	rows1, _ := collectResult(t, m1, snap.ID, 0)
	m1.Close(context.Background())

	// Flip one byte of the stored blob.
	key := done.ResultKey
	blobPath := filepath.Join(dir, "cas", "ca", key[:2], key[2:4], key)
	data, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x01
	if err := os.WriteFile(blobPath, data, 0o666); err != nil {
		t.Fatal(err)
	}

	m2 := openM(t, dir, Options{Runner: rowRunner(2)})
	<-m2.Ready()
	defer m2.Close(context.Background())
	redone := waitState(t, m2, snap.ID, StateDone)
	rows2, _ := collectResult(t, m2, snap.ID, 0)
	if strings.Join(rows1, "\n") != strings.Join(rows2, "\n") {
		t.Errorf("recomputed result differs from original")
	}
	if redone.ResultKey != done.ResultKey {
		t.Errorf("recomputed CAS key differs: %s vs %s", redone.ResultKey, done.ResultKey)
	}
	if st := m2.Stats(); st.Recovered != 1 {
		t.Errorf("Recovered = %d, want 1", st.Recovered)
	}
}

func TestReadinessGatesOnReplay(t *testing.T) {
	dir := t.TempDir()
	stall := make(chan struct{})
	m := openM(t, dir, Options{Runner: rowRunner(1), StallReplay: stall})
	defer m.Close(context.Background())
	select {
	case <-m.Ready():
		t.Fatal("ready before replay finished")
	case <-time.After(20 * time.Millisecond):
	}
	close(stall)
	select {
	case <-m.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("never became ready")
	}
}

func TestQueueBound(t *testing.T) {
	gate := make(chan struct{})
	m := openM(t, t.TempDir(), Options{
		Workers: 1, QueueDepth: 3,
		Runner: func(ctx context.Context, spec Spec, sink Sink) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	defer m.Close(context.Background())
	<-m.Ready()
	accepted := 0
	var lastErr error
	for i := 0; i < 10; i++ {
		if _, err := m.Enqueue(Spec{Type: TypeOptimize, Request: []byte(`{}`)}); err != nil {
			lastErr = err
			break
		}
		accepted++
	}
	if !errors.Is(lastErr, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v after %d accepts", lastErr, accepted)
	}
	if accepted != 3 {
		t.Errorf("accepted %d jobs, want 3", accepted)
	}
	close(gate)
}

// TestQueueBoundConcurrent: submitters racing each other get the same
// bound as serial ones — exactly QueueDepth accepted, the rest
// ErrQueueFull — while the only worker is blocked.
func TestQueueBoundConcurrent(t *testing.T) {
	gate := make(chan struct{})
	m := openM(t, t.TempDir(), Options{
		Workers: 1, QueueDepth: 3,
		Runner: func(ctx context.Context, spec Spec, sink Sink) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	defer m.Close(context.Background())
	defer close(gate)
	<-m.Ready()
	const submitters = 16
	var (
		start          = make(chan struct{})
		wg             sync.WaitGroup
		accepted, full atomic.Int64
	)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := m.Enqueue(Spec{Type: TypeOptimize, Request: []byte(`{}`)})
			switch {
			case err == nil:
				accepted.Add(1)
			case errors.Is(err, ErrQueueFull):
				full.Add(1)
			default:
				t.Errorf("Enqueue: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if accepted.Load() != 3 || full.Load() != submitters-3 {
		t.Errorf("accepted %d and refused %d of %d concurrent submits, want 3 and %d",
			accepted.Load(), full.Load(), submitters, submitters-3)
	}
}

func TestJournalTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	m1 := openM(t, dir, Options{Runner: rowRunner(1)})
	<-m1.Ready()
	snap, err := m1.Enqueue(Spec{Type: TypeOptimize, Request: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, snap.ID, StateDone)
	m1.Close(context.Background())

	// Append a torn line (no newline, bad frame) — the mid-append crash.
	path := filepath.Join(dir, "jobs", journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`deadbeef {"seq":999,"op":"enq`)
	f.Close()

	m2 := openM(t, dir, Options{Runner: rowRunner(1)})
	<-m2.Ready()
	defer m2.Close(context.Background())
	if st := m2.Stats(); st.CorruptRecords != 0 {
		t.Errorf("torn tail counted as corrupt: %+v", st)
	}
	if got, ok := m2.Get(snap.ID); !ok || got.State != StateDone {
		t.Errorf("job lost to torn tail: %+v, %v", got, ok)
	}
}

func TestJournalCorruptLineSkipped(t *testing.T) {
	dir := t.TempDir()
	m1 := openM(t, dir, Options{Runner: rowRunner(1)})
	<-m1.Ready()
	a, _ := m1.Enqueue(Spec{Type: TypeOptimize, Request: []byte(`{"a":1}`)})
	waitState(t, m1, a.ID, StateDone)
	b, _ := m1.Enqueue(Spec{Type: TypeOptimize, Request: []byte(`{"b":2}`)})
	waitState(t, m1, b.ID, StateDone)
	m1.Close(context.Background())

	// Flip a byte in the middle of the file (inside some record's JSON).
	path := filepath.Join(dir, "jobs", journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	mid := lines[1]
	mid[len(mid)/2] ^= 0x20
	if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o666); err != nil {
		t.Fatal(err)
	}

	m2 := openM(t, dir, Options{Runner: rowRunner(1)})
	<-m2.Ready()
	defer m2.Close(context.Background())
	if st := m2.Stats(); st.CorruptRecords != 1 {
		t.Errorf("CorruptRecords = %d, want 1", st.CorruptRecords)
	}
	// Both jobs still resolve: either reattached or recomputed, but
	// present and terminal.
	for _, id := range []string{a.ID, b.ID} {
		waitState(t, m2, id, StateDone)
	}
}

// TestJournalShortWriteInjection drives the torn-append path with the
// disk-fault plan syntax end to end: the injected short write is
// invisible at append time and dropped at the next replay.
func TestJournalShortWriteInjection(t *testing.T) {
	dir := t.TempDir()
	m1 := openM(t, dir, Options{Runner: rowRunner(1)})
	<-m1.Ready()
	keep, _ := m1.Enqueue(Spec{Type: TypeOptimize, Request: []byte(`{"keep":1}`)})
	waitState(t, m1, keep.ID, StateDone)
	m1.Close(context.Background())

	// Second manager journals every append through a short-write fault:
	// the enqueue below is torn on disk even though it was acknowledged
	// in memory.
	var torn atomic.Int64
	m2 := openM(t, dir, Options{
		Runner: rowRunner(1),
		Inject: func(op diskcache.Op) diskcache.Fault {
			if op == diskcache.OpWrite {
				torn.Add(1)
				return diskcache.FaultShortWrite
			}
			return diskcache.FaultNone
		},
	})
	<-m2.Ready()
	lost, err := m2.Enqueue(Spec{Type: TypeOptimize, Request: []byte(`{"lost":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	if torn.Load() == 0 {
		t.Fatal("short-write fault never drawn")
	}
	m2.CloseAbrupt()

	m3 := openM(t, dir, Options{Runner: rowRunner(1)})
	<-m3.Ready()
	defer m3.Close(context.Background())
	if got, ok := m3.Get(keep.ID); !ok || got.State != StateDone {
		t.Errorf("pre-fault job lost: %+v, %v", got, ok)
	}
	if _, ok := m3.Get(lost.ID); ok {
		t.Errorf("torn enqueue survived replay — the frame check failed to catch it")
	}
}

func TestRotationPreservesJobs(t *testing.T) {
	dir := t.TempDir()
	m1 := openM(t, dir, Options{Runner: rowRunner(1)})
	<-m1.Ready()
	var ids []string
	for i := 0; i < 5; i++ {
		snap, err := m1.Enqueue(Spec{Type: TypeOptimize, Request: fmt.Appendf(nil, `{"i":%d}`, i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
		waitState(t, m1, snap.ID, StateDone)
	}
	m1.Close(context.Background())

	m2 := openM(t, dir, Options{Runner: rowRunner(1)})
	<-m2.Ready()
	m2.mu.Lock()
	live := m2.liveRecordsLocked()
	m2.mu.Unlock()
	if err := m2.j.rotate(live); err != nil {
		t.Fatal(err)
	}
	// New enqueues after rotation must not collide with retained IDs.
	snap, err := m2.Enqueue(Spec{Type: TypeOptimize, Request: []byte(`{"post":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id == snap.ID {
			t.Fatalf("post-rotation ID %s collides", snap.ID)
		}
	}
	waitState(t, m2, snap.ID, StateDone)
	m2.Close(context.Background())

	m3 := openM(t, dir, Options{Runner: rowRunner(1)})
	<-m3.Ready()
	defer m3.Close(context.Background())
	for _, id := range append(ids, snap.ID) {
		if got, ok := m3.Get(id); !ok || got.State != StateDone {
			t.Errorf("job %s after rotation+restart = %+v, %v", id, got, ok)
		}
	}
}

func TestCloseCheckpointsRunningJobs(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 1)
	m1 := openM(t, dir, Options{Runner: func(ctx context.Context, spec Spec, sink Sink) error {
		sink.SetTotal(10)
		for i := 0; i < 3; i++ {
			sink.Emit(fmt.Appendf(nil, `{"row":%d}`, i))
		}
		started <- struct{}{}
		<-ctx.Done()
		return ctx.Err()
	}})
	<-m1.Ready()
	snap, err := m1.Enqueue(Spec{Type: TypeSweep, Request: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := m1.Stats(); st.Checkpointed != 1 {
		t.Errorf("Checkpointed = %d, want 1", st.Checkpointed)
	}
	// The checkpointed progress is visible after restart, before the
	// job re-runs.
	stall := make(chan struct{})
	m2 := openM(t, dir, Options{Runner: rowRunner(10), StallReplay: stall})
	defer m2.Close(context.Background())
	got, ok := m2.Get(snap.ID)
	if !ok || got.RowsDone != 3 || got.RowsTotal != 10 {
		t.Errorf("restarted snapshot = %+v, %v; want rows 3/10", got, ok)
	}
	close(stall)
	<-m2.Ready()
	waitState(t, m2, snap.ID, StateDone)
}
