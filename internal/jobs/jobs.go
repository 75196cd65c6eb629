// Package jobs is the durable asynchronous job layer beneath the
// serving tier: accepted work survives process death and resumes where
// it left off.
//
// A job is an optimize/sweep/compare spec (the same JSON bodies the
// synchronous endpoints take) executed by a bounded worker pool
// decoupled from any HTTP request. Every accepted job and every state
// transition is recorded in a checksummed write-ahead journal *before*
// it is acknowledged — the 202 a client receives means the enqueue
// record is fsynced — and finished results are stored as
// content-addressed blobs in the disk cache (internal/diskcache), so a
// restart reattaches completed jobs to their bytes and re-runs
// interrupted ones from their spec.
//
// Recovery, on Open: the journal is replayed (torn tails dropped,
// corrupt lines counted and skipped), terminal jobs reattach — a
// completed job whose result blob fails verification is quarantined and
// re-enqueued, never served — and pending/running jobs go back on the
// queue. Because every row a sweep computes flows through the serving
// layer's caches (and the disk tier persists them), a re-run job
// fast-forwards through the rows it already computed and produces
// byte-identical results. The Ready channel closes when replay
// finishes; the serving layer holds readiness until then.
//
// Failures are classified: transient errors (open breakers, injected
// faults, deadlines — Options.Retryable) retry with exponential backoff
// under a capped attempt budget; anything else is the spec's own fault
// and fails the job permanently. Close checkpoints in-flight progress
// and fsyncs the journal, which is what the serve command's SIGTERM
// path calls before exiting.
package jobs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"multisite/internal/diskcache"
)

// Type is a job's kind — which synchronous endpoint its spec mirrors.
type Type string

const (
	TypeOptimize Type = "optimize"
	TypeSweep    Type = "sweep"
	TypeCompare  Type = "compare"
)

// ValidType reports whether t names a known job type.
func ValidType(t Type) bool {
	return t == TypeOptimize || t == TypeSweep || t == TypeCompare
}

// State is a job's lifecycle state.
type State string

const (
	StatePending State = "pending"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Spec is the durable description of one job: everything needed to
// (re-)execute it from scratch.
type Spec struct {
	Type Type `json:"type"`
	// Request is the endpoint request body (ScenarioRequest /
	// SweepRequest / CompareRequest JSON), validated by the serving
	// layer before enqueue under the same untrusted-path rules as the
	// synchronous endpoints.
	Request []byte `json:"request"`
}

// Sink receives one attempt's output rows in order.
type Sink interface {
	// Emit appends one NDJSON row (without trailing newline). The row
	// bytes are copied; an error aborts the attempt.
	Emit(row []byte) error
	// SetTotal declares the expected row count once known (progress
	// reporting only).
	SetTotal(n int)
}

// Runner executes one job attempt. Rows must be emitted in
// deterministic order — the result blob is the concatenation, and the
// crash-restart contract promises byte-identical results.
type Runner func(ctx context.Context, spec Spec, sink Sink) error

// Errors the API surfaces.
var (
	ErrNotFound   = errors.New("jobs: no such job")
	ErrQueueFull  = errors.New("jobs: queue is full")
	ErrClosed     = errors.New("jobs: manager is closed")
	ErrResultLost = errors.New("jobs: result blob lost or corrupt; job re-enqueued")
)

// Options configures a Manager.
type Options struct {
	// Dir is the jobs directory (the journal lives here). Required.
	Dir string
	// CAS stores finished result blobs, keyed by their content hash.
	// Required.
	CAS *diskcache.Cache
	// Runner executes attempts. Required.
	Runner Runner
	// Workers bounds the pool; 0 means 2.
	Workers int
	// QueueDepth bounds jobs accepted but not finished; 0 means 256.
	QueueDepth int
	// MaxAttempts caps execution attempts per job; 0 means 4.
	MaxAttempts int
	// Backoff is the base retry delay, doubled per attempt; 0 means
	// 250ms. Capped at 30s.
	Backoff time.Duration
	// Retryable classifies attempt errors: true means transient (retry
	// under the budget), false means the spec's own fault (permanent).
	// Nil means nothing retries.
	Retryable func(error) bool
	// Inject, when set, draws disk faults under journal writes and
	// rotations (chaos hook; same shape as diskcache.Options.Inject).
	Inject func(op diskcache.Op) diskcache.Fault
	// Logf receives operational log lines; nil means silent.
	Logf func(format string, args ...any)
	// StallReplay, when non-nil, blocks the recovery pass until the
	// channel is closed — a test hook for observing the not-ready
	// window. Leave nil in production.
	StallReplay <-chan struct{}
	// IDPrefix is stamped onto newly assigned job IDs ("s1-j0000000001").
	// A fleet peer sets its shard label here so job IDs are globally
	// routable: any party holding an ID can map it back to the owning
	// shard without asking around. Replayed jobs keep their journaled
	// IDs verbatim, whatever prefix they were born under.
	IDPrefix string
}

// progressEvery is how many rows pass between progress records.
const progressEvery = 64

// maxBackoff caps the exponential retry delay.
const maxBackoff = 30 * time.Second

// rotateSlack: the journal is rotated when it holds this many records
// beyond the minimal rewrite of the retained jobs.
const rotateSlack = 64

// maxRetained bounds the terminal jobs kept for status queries; the
// oldest are forgotten first (their CAS blobs remain until the disk
// tier is cleaned independently).
const maxRetained = 4096

// job is the in-memory state of one job.
type job struct {
	mu       sync.Mutex
	id       string
	seq      int64
	spec     Spec
	state    State
	attempts int
	rowsDone int
	total    int
	errMsg   string
	casKey   string
	rows     [][]byte      // live rows of the current attempt
	updated  chan struct{} // closed and replaced on every change
}

// Snapshot is a point-in-time public view of one job.
type Snapshot struct {
	ID        string `json:"id"`
	Type      Type   `json:"type"`
	State     State  `json:"state"`
	Attempts  int    `json:"attempts,omitempty"`
	RowsDone  int    `json:"rows_done"`
	RowsTotal int    `json:"rows_total,omitempty"`
	ResultKey string `json:"result_key,omitempty"`
	Error     string `json:"error,omitempty"`
}

func (jb *job) snapshotLocked() Snapshot {
	return Snapshot{
		ID: jb.id, Type: jb.spec.Type, State: jb.state,
		Attempts: jb.attempts, RowsDone: jb.rowsDone, RowsTotal: jb.total,
		ResultKey: jb.casKey, Error: jb.errMsg,
	}
}

func (jb *job) snapshot() Snapshot {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.snapshotLocked()
}

// touchLocked wakes result streamers waiting on this job.
func (jb *job) touchLocked() {
	close(jb.updated)
	jb.updated = make(chan struct{})
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Enqueued counts accepted jobs; Completed and Failed their
	// terminal outcomes; Retried counts transient-failure re-runs.
	Enqueued, Completed, Failed, Retried int64
	// Recovered counts jobs re-enqueued by the startup replay
	// (interrupted jobs plus completed jobs whose blobs failed
	// verification); Checkpointed counts progress records written by
	// the shutdown path.
	Recovered, Checkpointed int64
	// CorruptRecords counts journal lines dropped by checksum or JSON
	// failure during replay (a torn final line is not counted).
	CorruptRecords int64
	// Running and Pending gauge current occupancy.
	Running, Pending int64
}

// Manager is the durable job subsystem. Create with Open; stop with
// Close.
type Manager struct {
	opts    Options
	j       *journal
	ctx     context.Context
	cancel  context.CancelFunc
	queue   chan *job
	wg      sync.WaitGroup
	ready   chan struct{}
	closing atomic.Bool

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // ids in enqueue-seq order

	enqueued     atomic.Int64
	completed    atomic.Int64
	failed       atomic.Int64
	retried      atomic.Int64
	recovered    atomic.Int64
	checkpointed atomic.Int64
	corrupt      atomic.Int64
	running      atomic.Int64
	pending      atomic.Int64
}

// Open reads the journal, reconstructs job states, starts the worker
// pool, and kicks off the recovery pass (re-enqueueing interrupted
// jobs, verifying completed ones). Ready() closes when recovery
// finishes; Open itself returns as soon as the journal is replayed.
func Open(opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, errors.New("jobs: Options.Dir is required")
	}
	if opts.CAS == nil {
		return nil, errors.New("jobs: Options.CAS is required")
	}
	if opts.Runner == nil {
		return nil, errors.New("jobs: Options.Runner is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 4
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 250 * time.Millisecond
	}

	j, recs, corrupt, err := openJournal(opts.Dir, opts.IDPrefix, opts.Inject)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:   opts,
		j:      j,
		ctx:    ctx,
		cancel: cancel,
		// Double depth leaves room for recovery re-enqueues of jobs
		// accepted before the bound existed; the Enqueue path enforces
		// QueueDepth itself.
		queue: make(chan *job, 2*opts.QueueDepth),
		ready: make(chan struct{}),
		jobs:  make(map[string]*job),
	}
	m.corrupt.Store(int64(corrupt))
	m.replay(recs)
	if n := m.corrupt.Load(); n > 0 {
		m.logf("jobs: dropped %d corrupt journal records", n)
	}
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	go m.recover(len(recs))
	return m, nil
}

func (m *Manager) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// Ready closes when the startup recovery pass has finished; the serving
// layer gates readiness on it.
func (m *Manager) Ready() <-chan struct{} { return m.ready }

// replay folds journal records into in-memory job state, last write
// wins per job. A state record only ever carries pending or running;
// one naming any other state is counted as corrupt and skipped, so no
// job is left in a state recovery does not know.
func (m *Manager) replay(recs []*record) {
	for _, rec := range recs {
		switch rec.Op {
		case "enqueue":
			if rec.Spec == nil || rec.ID == "" {
				continue
			}
			jb := &job{
				id: rec.ID, seq: rec.Seq, spec: *rec.Spec,
				state: StatePending, updated: make(chan struct{}),
			}
			if _, dup := m.jobs[rec.ID]; !dup {
				m.jobs[rec.ID] = jb
				m.order = append(m.order, rec.ID)
			}
		case "state":
			if rec.State != StatePending && rec.State != StateRunning {
				m.corrupt.Add(1)
				continue
			}
			if jb := m.jobs[rec.ID]; jb != nil {
				jb.state = rec.State
				jb.attempts = rec.Attempt
			}
		case "progress":
			if jb := m.jobs[rec.ID]; jb != nil {
				jb.rowsDone = rec.Rows
				if rec.Total > 0 {
					jb.total = rec.Total
				}
			}
		case "complete":
			if jb := m.jobs[rec.ID]; jb != nil {
				jb.state = StateDone
				jb.casKey = rec.CAS
				jb.rowsDone = rec.Rows
				if rec.Total > 0 {
					jb.total = rec.Total
				}
			}
		case "fail":
			if jb := m.jobs[rec.ID]; jb != nil {
				jb.state = StateFailed
				jb.errMsg = rec.Error
				jb.rowsDone = rec.Rows
				if rec.Total > 0 {
					jb.total = rec.Total
				}
			}
		}
	}
}

// recover is the startup pass behind Ready: completed jobs' blobs are
// verified (corrupt ones quarantined and re-enqueued), interrupted jobs
// go back on the queue, and a bloated journal is rotated down to its
// live records.
func (m *Manager) recover(replayed int) {
	defer close(m.ready)
	if m.opts.StallReplay != nil {
		select {
		case <-m.opts.StallReplay:
		case <-m.ctx.Done():
			return
		}
	}
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	requeued := 0
	for _, id := range ids {
		m.mu.Lock()
		jb := m.jobs[id]
		m.mu.Unlock()
		if jb == nil {
			continue
		}
		jb.mu.Lock()
		state, key := jb.state, jb.casKey
		jb.mu.Unlock()
		switch state {
		case StateDone:
			// Reattach, but only to a blob that still verifies; Has
			// quarantines a corrupt one, and the job re-runs.
			if key != "" && m.opts.CAS.Has(key) {
				continue
			}
			m.logf("jobs: %s: completed result %s lost or corrupt; recomputing", id, key)
			fallthrough
		case StatePending, StateRunning:
			jb.mu.Lock()
			jb.state = StatePending
			jb.casKey = ""
			jb.rows = nil
			jb.rowsDone = 0
			jb.touchLocked()
			jb.mu.Unlock()
			m.recovered.Add(1)
			m.pending.Add(1)
			m.dispatch(jb)
			requeued++
		}
	}
	if requeued > 0 {
		m.logf("jobs: recovery re-enqueued %d interrupted jobs", requeued)
	}
	m.maybeRotate(replayed)
}

// maybeRotate compacts the journal when it holds substantially more
// records than the retained jobs need.
func (m *Manager) maybeRotate(replayed int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if replayed <= 3*len(m.order)+rotateSlack {
		return
	}
	if err := m.j.rotate(m.liveRecordsLocked()); err != nil {
		m.logf("jobs: %v", err)
	}
}

// liveRecordsLocked renders the minimal journal for the retained jobs:
// one enqueue record each plus its latest terminal or progress state.
func (m *Manager) liveRecordsLocked() []*record {
	var recs []*record
	for _, id := range m.order {
		jb := m.jobs[id]
		if jb == nil {
			continue
		}
		jb.mu.Lock()
		spec := jb.spec
		recs = append(recs, &record{Seq: jb.seq, Op: "enqueue", ID: jb.id, Spec: &spec})
		switch jb.state {
		case StateDone:
			recs = append(recs, &record{Seq: jb.seq, Op: "complete", ID: jb.id,
				CAS: jb.casKey, Rows: jb.rowsDone, Total: jb.total})
		case StateFailed:
			recs = append(recs, &record{Seq: jb.seq, Op: "fail", ID: jb.id, Error: jb.errMsg,
				Rows: jb.rowsDone, Total: jb.total})
		default:
			recs = append(recs, &record{Seq: jb.seq, Op: "state", ID: jb.id,
				State: StatePending, Attempt: jb.attempts})
		}
		jb.mu.Unlock()
	}
	return recs
}

// jobID derives a job's name from its enqueue record's sequence number.
func jobID(seq int64) string { return fmt.Sprintf("j%010d", seq) }

// Enqueue accepts a job: the spec is journaled and fsynced before the
// snapshot is returned, so an acknowledged job survives kill -9 from
// this moment on.
func (m *Manager) Enqueue(spec Spec) (Snapshot, error) {
	if m.closing.Load() {
		return Snapshot{}, ErrClosed
	}
	if !ValidType(spec.Type) {
		return Snapshot{}, fmt.Errorf("jobs: unknown job type %q", spec.Type)
	}
	specCopy := spec
	rec := &record{Op: "enqueue", Spec: &specCopy}
	// m.mu held across the bound check, the append and the pending
	// count, so concurrent submitters cannot all pass the check at once
	// and m.order stays in sequence order.
	m.mu.Lock()
	if int(m.pending.Load())+int(m.running.Load()) >= m.opts.QueueDepth {
		m.mu.Unlock()
		return Snapshot{}, ErrQueueFull
	}
	seq, err := m.j.append(rec, true)
	if err != nil {
		m.mu.Unlock()
		return Snapshot{}, err
	}
	m.pending.Add(1)
	jb := &job{
		id: rec.ID, seq: seq, spec: specCopy,
		state: StatePending, updated: make(chan struct{}),
	}
	m.jobs[jb.id] = jb
	m.order = append(m.order, jb.id)
	m.trimRetainedLocked()
	m.mu.Unlock()
	m.enqueued.Add(1)
	// Snapshot before dispatch: the acknowledgement describes the job as
	// accepted, not whatever state a fast worker has already moved it to.
	snap := jb.snapshot()
	m.dispatch(jb)
	return snap, nil
}

// trimRetainedLocked forgets the oldest terminal jobs past the
// retention bound.
func (m *Manager) trimRetainedLocked() {
	if len(m.order) <= maxRetained {
		return
	}
	kept := m.order[:0]
	excess := len(m.order) - maxRetained
	for _, id := range m.order {
		jb := m.jobs[id]
		drop := false
		if excess > 0 && jb != nil {
			jb.mu.Lock()
			drop = jb.state == StateDone || jb.state == StateFailed
			jb.mu.Unlock()
		}
		if drop {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// dispatch queues a pending job for the pool, falling back to a timer
// when the channel is momentarily full.
func (m *Manager) dispatch(jb *job) {
	select {
	case m.queue <- jb:
	default:
		time.AfterFunc(50*time.Millisecond, func() {
			if !m.closing.Load() {
				m.dispatch(jb)
			}
		})
	}
}

// Get returns a job's snapshot.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	jb := m.jobs[id]
	m.mu.Unlock()
	if jb == nil {
		return Snapshot{}, false
	}
	return jb.snapshot(), true
}

// List returns snapshots of all retained jobs in enqueue order.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]Snapshot, 0, len(ids))
	for _, id := range ids {
		m.mu.Lock()
		jb := m.jobs[id]
		m.mu.Unlock()
		if jb != nil {
			out = append(out, jb.snapshot())
		}
	}
	return out
}

// Stats returns the current counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Enqueued:       m.enqueued.Load(),
		Completed:      m.completed.Load(),
		Failed:         m.failed.Load(),
		Retried:        m.retried.Load(),
		Recovered:      m.recovered.Load(),
		Checkpointed:   m.checkpointed.Load(),
		CorruptRecords: m.corrupt.Load(),
		Running:        m.running.Load(),
		Pending:        m.pending.Load(),
	}
}

// worker drains the queue until shutdown.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case jb := <-m.queue:
			// running rises before pending falls so the Enqueue bound
			// never sees a dip in occupancy between the two gauges.
			m.running.Add(1)
			m.pending.Add(-1)
			m.runAttempt(jb)
			m.running.Add(-1)
		}
	}
}

// sink adapts one attempt's row stream onto its job.
type sink struct {
	m  *Manager
	jb *job
}

func (s *sink) Emit(row []byte) error {
	if err := s.m.ctx.Err(); err != nil {
		return err
	}
	jb := s.jb
	jb.mu.Lock()
	jb.rows = append(jb.rows, bytes.Clone(row))
	jb.rowsDone = len(jb.rows)
	rows, total := jb.rowsDone, jb.total
	jb.touchLocked()
	jb.mu.Unlock()
	if rows%progressEvery == 0 {
		// Unsynced: progress records are an optimization for observers;
		// recovery re-runs the job regardless and the rows re-serve
		// from the cache tiers.
		s.m.j.append(&record{Op: "progress", ID: jb.id, Rows: rows, Total: total}, false)
	}
	return nil
}

func (s *sink) SetTotal(n int) {
	s.jb.mu.Lock()
	s.jb.total = n
	s.jb.touchLocked()
	s.jb.mu.Unlock()
}

// runAttempt executes one attempt and settles the job's next state:
// done, retry-scheduled, failed, or left running for the shutdown
// checkpoint.
func (m *Manager) runAttempt(jb *job) {
	jb.mu.Lock()
	if jb.state == StateDone || jb.state == StateFailed {
		jb.mu.Unlock()
		return
	}
	jb.attempts++
	attempt := jb.attempts
	jb.state = StateRunning
	jb.rows = nil
	jb.rowsDone = 0
	spec := jb.spec
	jb.touchLocked()
	jb.mu.Unlock()
	m.j.append(&record{Op: "state", ID: jb.id, State: StateRunning, Attempt: attempt}, false)

	err := m.runSafely(spec, jb)
	if err == nil {
		m.complete(jb)
		return
	}
	if m.ctx.Err() != nil {
		// Shutdown, not failure: leave the job running; Close
		// checkpoints it and the next boot re-enqueues it.
		return
	}
	retryable := m.opts.Retryable != nil && m.opts.Retryable(err)
	if retryable && attempt < m.opts.MaxAttempts {
		m.retry(jb, attempt, err)
		return
	}
	m.fail(jb, attempt, err, retryable)
}

// runSafely runs one attempt, converting a panicking runner into an
// error (a poisoned spec must fail its job, not the worker pool).
func (m *Manager) runSafely(spec Spec, jb *job) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("jobs: runner panicked: %v", p)
		}
	}()
	return m.opts.Runner(m.ctx, spec, &sink{m: m, jb: jb})
}

// complete assembles the result blob, stores it content-addressed, and
// journals the terminal record (fsynced).
func (m *Manager) complete(jb *job) {
	jb.mu.Lock()
	var blob bytes.Buffer
	for _, row := range jb.rows {
		blob.Write(row)
		blob.WriteByte('\n')
	}
	rows, total := jb.rowsDone, jb.total
	jb.mu.Unlock()
	sum := sha256.Sum256(blob.Bytes())
	key := hex.EncodeToString(sum[:])
	if err := m.opts.CAS.Put(key, blob.Bytes()); err != nil {
		// The result cannot be made durable; treat it like a transient
		// attempt failure so the retry budget drives it.
		jb.mu.Lock()
		attempt := jb.attempts
		jb.mu.Unlock()
		if attempt < m.opts.MaxAttempts {
			m.retry(jb, attempt, err)
		} else {
			m.fail(jb, attempt, fmt.Errorf("storing result: %w", err), true)
		}
		return
	}
	m.j.append(&record{Op: "complete", ID: jb.id, CAS: key, Rows: rows, Total: total}, true)
	jb.mu.Lock()
	jb.state = StateDone
	jb.casKey = key
	jb.rows = nil // serve from the CAS from here on
	jb.touchLocked()
	jb.mu.Unlock()
	m.completed.Add(1)
}

// retry journals the job back to pending and schedules its next attempt
// after an exponential backoff.
func (m *Manager) retry(jb *job, attempt int, cause error) {
	m.retried.Add(1)
	m.j.append(&record{Op: "state", ID: jb.id, State: StatePending, Attempt: attempt}, false)
	jb.mu.Lock()
	jb.state = StatePending
	jb.errMsg = ""
	jb.touchLocked()
	jb.mu.Unlock()
	delay := m.opts.Backoff << (attempt - 1)
	if delay > maxBackoff {
		delay = maxBackoff
	}
	m.logf("jobs: %s attempt %d failed transiently (%v); retrying in %s", jb.id, attempt, cause, delay)
	m.pending.Add(1)
	time.AfterFunc(delay, func() {
		if m.closing.Load() {
			m.pending.Add(-1)
			return
		}
		m.dispatch(jb)
	})
}

// fail journals the terminal failure (fsynced) with the last attempt's
// row count, so replay does not fall back on an earlier attempt's
// progress record.
func (m *Manager) fail(jb *job, attempt int, cause error, transient bool) {
	msg := cause.Error()
	if transient {
		msg = fmt.Sprintf("retry budget exhausted after %d attempts: %v", attempt, cause)
	}
	jb.mu.Lock()
	rows, total := jb.rowsDone, jb.total
	jb.mu.Unlock()
	m.j.append(&record{Op: "fail", ID: jb.id, Error: msg, Rows: rows, Total: total}, true)
	jb.mu.Lock()
	jb.state = StateFailed
	jb.errMsg = msg
	jb.touchLocked()
	jb.mu.Unlock()
	m.failed.Add(1)
	m.logf("jobs: %s failed permanently: %s", jb.id, msg)
}

// requeueLost puts a done job whose blob vanished back on the queue.
func (m *Manager) requeueLost(jb *job) {
	jb.mu.Lock()
	if jb.state != StateDone {
		jb.mu.Unlock()
		return
	}
	jb.state = StatePending
	jb.casKey = ""
	jb.rowsDone = 0
	jb.touchLocked()
	jb.mu.Unlock()
	m.j.append(&record{Op: "state", ID: jb.id, State: StatePending, Attempt: 0}, false)
	m.recovered.Add(1)
	m.pending.Add(1)
	m.dispatch(jb)
}

// StreamResult writes the job's result rows from row index offset
// onward, one write call per row (no trailing newline), following a
// live job until it settles. The returned snapshot is the job's state
// at stream end. A done job whose blob fails verification is
// re-enqueued and ErrResultLost returned — corrupt bytes are never
// written. A cancelled ctx returns ctx.Err() with the rows already
// written standing.
func (m *Manager) StreamResult(ctx context.Context, id string, offset int, write func(row []byte) error) (Snapshot, error) {
	if offset < 0 {
		offset = 0
	}
	m.mu.Lock()
	jb := m.jobs[id]
	m.mu.Unlock()
	if jb == nil {
		return Snapshot{}, ErrNotFound
	}
	next := offset
	for {
		jb.mu.Lock()
		state := jb.state
		var batch [][]byte
		if state == StateRunning && next < len(jb.rows) {
			batch = append(batch, jb.rows[next:]...)
		}
		wait := jb.updated
		snap := jb.snapshotLocked()
		key := jb.casKey
		jb.mu.Unlock()

		switch state {
		case StateDone:
			blob, ok := m.opts.CAS.Get(key)
			if !ok {
				m.requeueLost(jb)
				return jb.snapshot(), ErrResultLost
			}
			rows := splitRows(blob)
			for ; next < len(rows); next++ {
				if err := write(rows[next]); err != nil {
					return snap, err
				}
			}
			return snap, nil
		case StateFailed:
			return snap, nil
		}
		for _, row := range batch {
			if err := write(row); err != nil {
				return snap, err
			}
			next++
		}
		if len(batch) == 0 {
			select {
			case <-wait:
			case <-ctx.Done():
				return snap, ctx.Err()
			case <-m.ctx.Done():
				return snap, ErrClosed
			}
		}
	}
}

// CloseAbrupt approximates kill -9 at the journal level — a test hook
// for crash drills that must stay in-process: workers stop, and the
// journal handle closes with no checkpoint records and no final fsync.
// Only what an acknowledged append already made durable survives.
func (m *Manager) CloseAbrupt() {
	if m.closing.Swap(true) {
		return
	}
	m.cancel()
	m.wg.Wait()
	m.j.closeAbrupt()
}

// splitRows splits a result blob back into rows (it was assembled as
// newline-terminated lines).
func splitRows(blob []byte) [][]byte {
	var rows [][]byte
	for len(blob) > 0 {
		i := bytes.IndexByte(blob, '\n')
		if i < 0 {
			rows = append(rows, blob)
			break
		}
		rows = append(rows, blob[:i])
		blob = blob[i+1:]
	}
	return rows
}

// Close drains the pool and checkpoints: no new attempts start, workers
// are released, each still-running job gets a progress record, and the
// journal is fsynced and closed. Safe to call once; the ctx bounds the
// worker drain.
func (m *Manager) Close(ctx context.Context) error {
	if m.closing.Swap(true) {
		return nil
	}
	m.cancel()
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
	}
	// Checkpoint in-flight progress so observers of the next boot see
	// where each job was; recovery re-runs them regardless.
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	for _, id := range ids {
		m.mu.Lock()
		jb := m.jobs[id]
		m.mu.Unlock()
		if jb == nil {
			continue
		}
		jb.mu.Lock()
		isRunning := jb.state == StateRunning
		rows, total := jb.rowsDone, jb.total
		jb.mu.Unlock()
		if isRunning {
			m.j.append(&record{Op: "progress", ID: id, Rows: rows, Total: total}, false)
			m.checkpointed.Add(1)
		}
	}
	return m.j.close()
}
