package faultinject

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// schedule is a fixed list of fault steps consumed one per call through
// an atomic cursor, so concurrent calls each draw their own step. Past
// the end it yields the zero step, which passes, unless it repeats; a
// nil schedule passes everything. Plan and DiskPlan are schedules of
// their own step types.
type schedule[S any] struct {
	steps  []S
	repeat bool
	next   atomic.Int64
}

// parseSchedule parses a comma-separated list of steps, each element
// read by step; a trailing "repeat" element makes the schedule cycle.
func parseSchedule[S any](s string, step func(word string) (S, error)) (*schedule[S], error) {
	sc := &schedule[S]{}
	parts := strings.Split(s, ",")
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if part == "repeat" {
			if i != len(parts)-1 {
				return nil, fmt.Errorf("faultinject: %q: repeat must be the last element", s)
			}
			sc.repeat = true
			continue
		}
		st, err := step(part)
		if err != nil {
			return nil, err
		}
		sc.steps = append(sc.steps, st)
	}
	if len(sc.steps) == 0 {
		return nil, fmt.Errorf("faultinject: empty plan %q", s)
	}
	return sc, nil
}

// draw consumes and returns the next step.
func (sc *schedule[S]) draw() S {
	var pass S
	if sc == nil {
		return pass
	}
	i := sc.next.Add(1) - 1
	if i >= int64(len(sc.steps)) {
		if !sc.repeat {
			return pass
		}
		i %= int64(len(sc.steps))
	}
	return sc.steps[i]
}

// format renders the schedule in its parser's syntax, each step by name.
func (sc *schedule[S]) format(name func(S) string) string {
	if sc == nil {
		return "pass"
	}
	var b strings.Builder
	for i, st := range sc.steps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name(st))
	}
	if sc.repeat {
		b.WriteString(",repeat")
	}
	return b.String()
}
