package main

import (
	"context"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"multisite/internal/core"
	"multisite/internal/soc"
	"multisite/internal/solve"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent names the span that caused this one (0 for a root).
// Times are nanoseconds since the tracer was created, on the monotonic
// clock.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part of its interval that its
	// child spans cover; filled in by selfTimes.
	Self int64 `json:"self_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock reading into the tracer's time base.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanCtx is the current span a context carries: the request it belongs
// to and the span new children hang under.
type spanCtx struct{ req, id int64 }

type spanKey struct{}

func spanFrom(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc
}

// withRequest starts a request's span tree: spans begun under the
// returned context carry req and have parent as their parent.
func withRequest(ctx context.Context, req, parent int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{req: req, id: parent})
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// begin opens a span under the span ctx carries, and returns the context
// its children should run under. On a nil tracer it returns ctx and a nil
// span, whose methods do nothing.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, *openSpan) {
	if t == nil {
		return ctx, nil
	}
	parent := spanFrom(ctx)
	o := &openSpan{t: t, s: span{ID: t.newID(), Parent: parent.id, Req: parent.req, Name: name}}
	o.s.Start = t.at(time.Now())
	return context.WithValue(ctx, spanKey{}, spanCtx{req: parent.req, id: o.s.ID}), o
}

// rename changes the name the span is recorded under, for spans whose
// outcome (a cache hit or miss) is known only when they end.
func (o *openSpan) rename(name string) {
	if o != nil {
		o.s.Name = name
	}
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = o.t.at(time.Now())
	o.t.add(o.s)
}

// do runs f inside a span named name.
func (t *tracer) do(ctx context.Context, name string, f func(ctx context.Context)) {
	ctx, sp := t.begin(ctx, name)
	f(ctx)
	sp.end()
}

// spanHeader carries the client's span ID to the traced handler, which
// makes the server-side spans of a request children of the client's.
const spanHeader = "X-Bench-Span"

// tracedHandler wraps the server's handler so every request from the
// traced client runs under a server.handler span whose request ID is the
// client span's. Requests without the header (metrics scrapes) are
// served untraced.
func tracedHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		ctx, sp := t.begin(withRequest(r.Context(), parent, parent), "server.handler")
		h.ServeHTTP(w, r.WithContext(ctx))
		sp.end()
	})
}

// tracedSolver times each backend call as a solve.<name> span under the
// request span its context carries. Designs run by the job pool carry no
// request and become roots of their own.
type tracedSolver struct {
	solve.Solver
	t *tracer
}

func (s tracedSolver) Solve(ctx context.Context, chip *soc.SOC, cfg core.Config) (*core.Result, error) {
	ctx, sp := s.t.begin(ctx, "solve."+s.Name())
	defer sp.end()
	return s.Solver.Solve(ctx, chip, cfg)
}

// wrapSolver is the server.Options.WrapSolver hook of the traced pass. The
// wrapper hides the anytime face of a backend, which only the portfolio
// and anytime requests use; no workload sends either.
func (t *tracer) wrapSolver(_ string, sv solve.Solver) solve.Solver {
	return tracedSolver{Solver: sv, t: t}
}

// selfTimes fills each span's Self: its duration minus the union of its
// children's intervals, each clipped to the parent's interval.
func selfTimes(spans []span) {
	children := make(map[int64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		var iv [][2]int64
		for _, c := range children[p.ID] {
			lo, hi := max(spans[c].Start, p.Start), min(spans[c].End, p.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		p.Self = p.dur() - unionLen(iv)
	}
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	end := int64(math.MinInt64)
	for _, x := range iv {
		if lo := max(x[0], end); x[1] > lo {
			total += x[1] - lo
			end = x[1]
		}
	}
	return total
}
