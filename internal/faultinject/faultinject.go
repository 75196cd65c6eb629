// Package faultinject wraps a solver backend with a deterministic fault
// schedule, so the failure paths the resilience layer exists for —
// slowdowns, transient errors, panics, outright hangs — can be driven on
// purpose, in tests and in a chaos-mode server, instead of waited for.
//
// A Plan is a finite sequence of steps consumed one per Solve call
// (atomically, so concurrent calls each draw their own step). Past the
// end the plan passes calls through untouched, unless built to repeat.
// Plans come from two constructors: NewPlan for tests that want exact
// control, and ParsePlan for the CLI's -inject flag
// ("delay:50ms,error,pass" with an optional trailing "repeat"). A plan is
// a fixed schedule, which is what makes a chaos failure reproducible.
//
// Injected errors match solve.ErrTransient, so the caching tiers refuse
// to store anything an injected fault touched, and the circuit breakers
// count it against the backend like any organic transient failure.
package faultinject

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"multisite/internal/core"
	"multisite/internal/soc"
	"multisite/internal/solve"
)

// ErrInjected is what an error-mode step returns; it matches
// solve.ErrTransient.
var ErrInjected = fmt.Errorf("faultinject: injected failure: %w", solve.ErrTransient)

// Mode is one step's behavior.
type Mode int

const (
	// Pass calls the backend untouched.
	Pass Mode = iota
	// Delay sleeps the step's Delay (context-aware: cancellation cuts
	// the sleep short and returns the context's error), then calls the
	// backend.
	Delay
	// Error returns ErrInjected without calling the backend.
	Error
	// Panic panics without calling the backend — exercises every
	// recover() on the call path.
	Panic
	// Hang blocks until the context is done, then returns its error —
	// the shape of a backend that will never answer.
	Hang
)

func (m Mode) String() string {
	switch m {
	case Pass:
		return "pass"
	case Delay:
		return "delay"
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Hang:
		return "hang"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Step is one scheduled fault.
type Step struct {
	Mode Mode
	// Delay is the sleep length for Mode Delay; ignored otherwise.
	Delay time.Duration
}

// Plan is a deterministic fault schedule. Calls draw steps in order via
// an atomic cursor; a nil *Plan passes everything through. Safe for
// concurrent use.
type Plan struct {
	steps  []Step
	repeat bool
	next   atomic.Int64
}

// NewPlan builds a plan from explicit steps. With repeat the schedule
// cycles; otherwise calls past the last step pass through.
func NewPlan(steps []Step, repeat bool) *Plan {
	return &Plan{steps: append([]Step(nil), steps...), repeat: repeat}
}

// ParsePlan parses a comma-separated schedule: "pass", "error", "panic",
// "hang", or "delay:<duration>"; a trailing "repeat" element makes the
// schedule cycle. Example: "delay:50ms,error,pass,repeat".
func ParsePlan(s string) (*Plan, error) {
	var steps []Step
	repeat := false
	parts := strings.Split(s, ",")
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if part == "repeat" {
			if i != len(parts)-1 {
				return nil, fmt.Errorf("faultinject: %q: repeat must be the last element", s)
			}
			repeat = true
			continue
		}
		switch {
		case part == "pass":
			steps = append(steps, Step{Mode: Pass})
		case part == "error":
			steps = append(steps, Step{Mode: Error})
		case part == "panic":
			steps = append(steps, Step{Mode: Panic})
		case part == "hang":
			steps = append(steps, Step{Mode: Hang})
		case strings.HasPrefix(part, "delay:"):
			d, err := time.ParseDuration(strings.TrimPrefix(part, "delay:"))
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad delay in %q: %w", part, err)
			}
			if d < 0 {
				return nil, fmt.Errorf("faultinject: negative delay in %q", part)
			}
			steps = append(steps, Step{Mode: Delay, Delay: d})
		default:
			return nil, fmt.Errorf("faultinject: unknown step %q (want pass, delay:<dur>, error, panic, hang, repeat)", part)
		}
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("faultinject: empty plan %q", s)
	}
	return NewPlan(steps, repeat), nil
}

// draw returns the next step. Past a non-repeating schedule it passes.
func (p *Plan) draw() Step {
	if p == nil || len(p.steps) == 0 {
		return Step{Mode: Pass}
	}
	i := p.next.Add(1) - 1
	if int(i) >= len(p.steps) {
		if !p.repeat {
			return Step{Mode: Pass}
		}
		i %= int64(len(p.steps))
	}
	return p.steps[i]
}

// String renders the schedule in ParsePlan syntax.
func (p *Plan) String() string {
	if p == nil {
		return "pass"
	}
	var b strings.Builder
	for i, st := range p.steps {
		if i > 0 {
			b.WriteByte(',')
		}
		if st.Mode == Delay {
			fmt.Fprintf(&b, "delay:%s", st.Delay)
		} else {
			b.WriteString(st.Mode.String())
		}
	}
	if p.repeat {
		b.WriteString(",repeat")
	}
	return b.String()
}

// Wrap injects the plan's schedule in front of a solver backend. The
// wrapper is anytime over any backend: pass and delay steps delegate
// through solve.SolveAnytimeOf with the incumbent and observer intact.
func Wrap(sv solve.Solver, p *Plan) solve.AnytimeSolver {
	return wrapped{sv: sv, plan: p}
}

type wrapped struct {
	sv   solve.Solver
	plan *Plan
}

func (w wrapped) Name() string     { return w.sv.Name() }
func (w wrapped) Info() solve.Info { return w.sv.Info() }

// apply runs the step's fault. proceed=false means the fault consumed
// the call and err is the outcome.
func (w wrapped) apply(ctx context.Context, st Step) (proceed bool, err error) {
	switch st.Mode {
	case Delay:
		t := time.NewTimer(st.Delay)
		defer t.Stop()
		select {
		case <-t.C:
			return true, nil
		case <-ctx.Done():
			return false, ctx.Err()
		}
	case Error:
		return false, ErrInjected
	case Panic:
		panic(fmt.Sprintf("faultinject: injected panic in backend %q", w.sv.Name()))
	case Hang:
		<-ctx.Done()
		return false, ctx.Err()
	default:
		return true, nil
	}
}

func (w wrapped) Solve(ctx context.Context, s *soc.SOC, cfg core.Config) (*core.Result, error) {
	return w.SolveAnytime(ctx, s, cfg, nil, nil)
}

func (w wrapped) SolveAnytime(ctx context.Context, s *soc.SOC, cfg core.Config, inc *solve.Incumbent, observe func(*core.Result)) (*core.Result, error) {
	if proceed, err := w.apply(ctx, w.plan.draw()); !proceed {
		return nil, err
	}
	return solve.SolveAnytimeOf(ctx, w.sv, s, cfg, inc, observe)
}
