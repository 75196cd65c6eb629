// Package faultinject drives failure paths on purpose with deterministic
// fault schedules, in tests and in a chaos-mode server, instead of
// waiting for them. A Plan wraps a solver backend with slowdowns,
// transient errors, panics and outright hangs, which the resilience
// layer exists for; a DiskPlan is the disk cache's and job journal's
// fault hook, with short writes, read errors and torn renames, which
// their recovery code exists for.
//
// Both are one schedule: a fixed list of steps consumed one per call
// (atomically, so concurrent calls each draw their own step). Past the
// end a schedule passes calls through untouched, unless it repeats.
// ParsePlan reads the CLI's -inject syntax ("delay:50ms,error,pass") and
// ParseDiskPlan its -inject-disk syntax ("shortwrite,pass,eio,torn"),
// each with an optional trailing "repeat". A plan is a fixed schedule,
// which is what makes a chaos failure reproducible.
//
// Injected solver errors match solve.ErrTransient, so the caching tiers
// refuse to store anything an injected fault touched, and the circuit
// breakers count it against the backend like any organic transient
// failure.
package faultinject

import (
	"context"
	"fmt"
	"strings"
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

// modeNames names each mode in ParsePlan syntax, where a delay step
// also carries its duration ("delay:50ms").
var modeNames = [...]string{Pass: "pass", Delay: "delay", Error: "error", Panic: "panic", Hang: "hang"}

func (m Mode) String() string {
	if m >= 0 && int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Step is one scheduled fault.
type Step struct {
	Mode Mode
	// Delay is the sleep length for Mode Delay; ignored otherwise.
	Delay time.Duration
}

// Plan is a deterministic schedule of solver faults; a nil *Plan passes
// everything through. Safe for concurrent use.
type Plan schedule[Step]

// ParsePlan parses a comma-separated schedule: "pass", "error", "panic",
// "hang", or "delay:<duration>"; a trailing "repeat" element makes the
// schedule cycle. Example: "delay:50ms,error,pass,repeat".
func ParsePlan(s string) (*Plan, error) {
	sc, err := parseSchedule(s, func(word string) (Step, error) {
		if dur, ok := strings.CutPrefix(word, "delay:"); ok {
			d, err := time.ParseDuration(dur)
			if err != nil {
				return Step{}, fmt.Errorf("faultinject: bad delay in %q: %w", word, err)
			}
			if d < 0 {
				return Step{}, fmt.Errorf("faultinject: negative delay in %q", word)
			}
			return Step{Mode: Delay, Delay: d}, nil
		}
		for m, name := range modeNames {
			if word == name && Mode(m) != Delay {
				return Step{Mode: Mode(m)}, nil
			}
		}
		return Step{}, fmt.Errorf("faultinject: unknown step %q (want pass, delay:<dur>, error, panic, hang, repeat)", word)
	})
	return (*Plan)(sc), err
}

// String renders the schedule in ParsePlan syntax.
func (p *Plan) String() string {
	return (*schedule[Step])(p).format(func(st Step) string {
		if st.Mode == Delay {
			return "delay:" + st.Delay.String()
		}
		return st.Mode.String()
	})
}

// Wrap injects the plan's schedule in front of a solver backend. The
// wrapper is anytime over any backend: pass and delay steps delegate
// through solve.SolveAnytimeOf with the incumbent and observer intact.
func Wrap(sv solve.Solver, p *Plan) solve.AnytimeSolver {
	return wrapped{sv: sv, plan: (*schedule[Step])(p)}
}

type wrapped struct {
	sv   solve.Solver
	plan *schedule[Step]
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
