// Package resilience gives each solver backend a circuit breaker, so a
// backend that has started timing out stops being handed work it cannot
// finish. The serving layer wraps every registry backend in its own
// Breaker: requests burn their deadline budget on a healthy search, not
// on a branch-and-bound that the last three requests already proved
// cannot converge on this traffic — and the portfolio solver, finding its
// exact leg open, degrades to heuristic-only instead of stalling.
//
// The breaker is the standard three-state machine. Closed passes calls
// through and records outcomes in a rolling window; it trips to Open on
// either K consecutive deadline failures or a failure ratio over the full
// window. Open rejects immediately with OpenError (which matches
// solve.ErrTransient, so nothing downstream caches the rejection). After
// a cooldown the breaker admits a single probe call (HalfOpen); if it
// succeeds the breaker closes, if it fails it reopens for another
// cooldown.
//
// Outcome classification is deliberate: a context deadline is the signal
// the breaker exists for; an injected or transient backend failure
// (solve.ErrTransient) also counts against the window; a permanent input
// error — an oversized SOC, an unknown module — counts as a success,
// because the backend answered correctly and quickly. Client
// cancellations (context.Canceled) are neutral: the client walked away,
// which says nothing about backend health.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"multisite/internal/core"
	"multisite/internal/soc"
	"multisite/internal/solve"
)

// ErrOpen is the sentinel every OpenError matches; test rejections with
// errors.Is(err, ErrOpen).
var ErrOpen = errors.New("resilience: circuit open")

// OpenError is returned (without calling the backend) while a breaker is
// open. It matches both ErrOpen and solve.ErrTransient, so the caching
// tiers treat a rejection as transient and never store it.
type OpenError struct {
	// Backend is the wrapped solver's registry name.
	Backend string
}

func (e *OpenError) Error() string {
	return fmt.Sprintf("resilience: circuit for backend %q is open", e.Backend)
}

// Is matches ErrOpen and solve.ErrTransient.
func (e *OpenError) Is(target error) bool {
	return target == ErrOpen || target == solve.ErrTransient
}

// State is a breaker's position in the three-state machine.
type State int

const (
	// Closed: calls pass through; outcomes are recorded.
	Closed State = iota
	// Open: calls are rejected with OpenError until the cooldown ends.
	Open
	// HalfOpen: a single probe call passes through; its outcome
	// decides between Closed and another Open period.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Options tunes a Breaker. The zero value takes every default.
type Options struct {
	// Window is the rolling outcome window length; 0 means 16.
	Window int
	// FailureRatio trips the breaker when the window is full and at
	// least this fraction of it failed; 0 means 0.5. Set >1 to disable
	// ratio tripping.
	FailureRatio float64
	// ConsecutiveDeadlines trips the breaker after this many deadline
	// failures in a row, without waiting for the window to fill — the
	// fast path for a backend that reliably cannot meet the current
	// traffic's deadlines. 0 means 3; negative disables.
	ConsecutiveDeadlines int
	// Cooldown is how long an open breaker rejects before admitting
	// its half-open probe; 0 means 5s.
	Cooldown time.Duration
	// Clock overrides time.Now, for deterministic tests.
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 16
	}
	if o.FailureRatio == 0 {
		o.FailureRatio = 0.5
	}
	if o.ConsecutiveDeadlines == 0 {
		o.ConsecutiveDeadlines = 3
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 5 * time.Second
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// Breaker is one backend's circuit breaker. Use NewBreaker or Set.For;
// the zero value is not usable. Safe for concurrent use.
type Breaker struct {
	name string
	opts Options

	mu        sync.Mutex
	state     State
	window    []bool // ring buffer of outcomes, true = failure
	widx      int    // next write position
	wlen      int    // filled length
	consec    int    // consecutive deadline failures
	openedAt  time.Time
	probing   bool // the half-open probe is in flight
	trips     int64
	rejects   int64
	deadlines int64
}

// NewBreaker builds a breaker for the named backend.
func NewBreaker(name string, opts Options) *Breaker {
	o := opts.withDefaults()
	return &Breaker{name: name, opts: o, window: make([]bool, o.Window)}
}

// Allow reports whether a call may proceed. A non-nil error is an
// *OpenError and the call must not happen; otherwise the caller must
// invoke Record with the call's outcome exactly once.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return nil
	case Open:
		if b.opts.Clock().Sub(b.openedAt) < b.opts.Cooldown {
			b.rejects++
			return &OpenError{Backend: b.name}
		}
		// Cooldown over: this caller becomes the half-open probe.
		b.state = HalfOpen
		b.probing = true
		return nil
	case HalfOpen:
		if b.probing {
			b.rejects++
			return &OpenError{Backend: b.name}
		}
		b.probing = true
		return nil
	}
	return nil
}

// Record feeds a completed call's outcome back into the breaker.
func (b *Breaker) Record(err error) {
	deadline := errors.Is(err, context.DeadlineExceeded)
	if !deadline && errors.Is(err, context.Canceled) {
		// Client walked away; says nothing about backend health — but a
		// half-open probe slot must still be released.
		b.mu.Lock()
		if b.state == HalfOpen {
			b.probing = false
		}
		b.mu.Unlock()
		return
	}
	failure := deadline || errors.Is(err, solve.ErrTransient)

	b.mu.Lock()
	defer b.mu.Unlock()
	if deadline {
		b.deadlines++
	}
	switch b.state {
	case HalfOpen:
		b.probing = false
		if failure {
			b.trip()
			return
		}
		b.reset()
	case Closed:
		b.window[b.widx] = failure
		b.widx = (b.widx + 1) % len(b.window)
		if b.wlen < len(b.window) {
			b.wlen++
		}
		if deadline {
			b.consec++
		} else {
			b.consec = 0
		}
		if b.opts.ConsecutiveDeadlines > 0 && b.consec >= b.opts.ConsecutiveDeadlines {
			b.trip()
			return
		}
		if b.wlen == len(b.window) {
			fails := 0
			for _, f := range b.window {
				if f {
					fails++
				}
			}
			if float64(fails) >= b.opts.FailureRatio*float64(len(b.window)) {
				b.trip()
			}
		}
	case Open:
		// A straggler from before the trip; its outcome is stale.
	}
}

// trip opens the breaker. Caller holds b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.opts.Clock()
	b.trips++
	b.consec = 0
	b.wlen, b.widx = 0, 0
	for i := range b.window {
		b.window[i] = false
	}
}

// reset closes the breaker with a clean window. Caller holds b.mu.
func (b *Breaker) reset() {
	b.state = Closed
	b.consec = 0
	b.wlen, b.widx = 0, 0
	for i := range b.window {
		b.window[i] = false
	}
}

// Snapshot is a point-in-time view of one breaker, for /metrics.
type Snapshot struct {
	Backend   string
	State     State
	Trips     int64 // transitions into Open
	Rejects   int64 // calls refused while Open/HalfOpen
	Deadlines int64 // deadline outcomes recorded
}

// Snapshot returns the breaker's current counters.
func (b *Breaker) Snapshot() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Snapshot{Backend: b.name, State: b.state, Trips: b.trips, Rejects: b.rejects, Deadlines: b.deadlines}
}

// Set is a lazily-populated collection of per-backend breakers sharing
// one Options. Safe for concurrent use.
type Set struct {
	opts Options
	mu   sync.Mutex
	m    map[string]*Breaker
}

// NewSet builds an empty set; breakers materialize on first For.
func NewSet(opts Options) *Set {
	return &Set{opts: opts, m: make(map[string]*Breaker)}
}

// For returns name's breaker, creating it on first use.
func (s *Set) For(name string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[name]
	if !ok {
		b = NewBreaker(name, s.opts)
		s.m[name] = b
	}
	return b
}

// Snapshots returns every breaker's snapshot, sorted by backend name.
func (s *Set) Snapshots() []Snapshot {
	s.mu.Lock()
	snaps := make([]Snapshot, 0, len(s.m))
	for _, b := range s.m {
		snaps = append(snaps, b.Snapshot())
	}
	s.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Backend < snaps[j].Backend })
	return snaps
}

// Wrap guards a solver backend with a breaker: open → immediate
// OpenError without calling the backend; otherwise the call proceeds and
// its outcome (a panic included, surfaced as a transient error) is
// recorded. The wrapper is anytime over any backend — it delegates
// through solve.SolveAnytimeOf — so a portfolio racing wrapped backends
// keeps its incumbent sharing and improving-design stream.
func Wrap(sv solve.Solver, b *Breaker) solve.AnytimeSolver {
	return wrapped{sv: sv, b: b}
}

type wrapped struct {
	sv solve.Solver
	b  *Breaker
}

func (w wrapped) Name() string     { return w.sv.Name() }
func (w wrapped) Info() solve.Info { return w.sv.Info() }

func (w wrapped) Solve(ctx context.Context, s *soc.SOC, cfg core.Config) (*core.Result, error) {
	return w.SolveAnytime(ctx, s, cfg, nil, nil)
}

func (w wrapped) SolveAnytime(ctx context.Context, s *soc.SOC, cfg core.Config, inc *solve.Incumbent, observe func(*core.Result)) (res *core.Result, err error) {
	if aerr := w.b.Allow(); aerr != nil {
		return nil, aerr
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("resilience: backend %q panicked: %v: %w", w.sv.Name(), r, solve.ErrTransient)
		}
		w.b.Record(err)
	}()
	return solve.SolveAnytimeOf(ctx, w.sv, s, cfg, inc, observe)
}
