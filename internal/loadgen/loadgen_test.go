package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"multisite/internal/server"
)

// TestScheduleDeterministic: same seed ⇒ byte-identical schedule,
// different seed ⇒ different traffic.
func TestScheduleDeterministic(t *testing.T) {
	opts := ScheduleOptions{Seed: 42, Rate: 200, Duration: 2 * time.Second}
	a, err := BuildSchedule(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSchedule(opts)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Error("same seed produced different schedule bytes")
	}
	opts.Seed = 43
	c, err := BuildSchedule(opts)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ab, cb) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestScheduleShape(t *testing.T) {
	sched, err := BuildSchedule(ScheduleOptions{Seed: 7, Rate: 100, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Requests) != 100 {
		t.Fatalf("got %d requests, want 100", len(sched.Requests))
	}
	var prev time.Duration = -1
	coldBodies := map[string]bool{}
	for _, r := range sched.Requests {
		if r.At <= prev {
			t.Fatalf("arrivals not strictly increasing at index %d: %v after %v", r.Index, r.At, prev)
		}
		prev = r.At
		if r.At < 0 || r.At > sched.Duration {
			t.Errorf("arrival %v outside (0, %v]", r.At, sched.Duration)
		}
		switch r.Class {
		case ClassHot:
			if r.Path != "/v1/optimize" || !strings.Contains(string(r.Body), `"soc"`) {
				t.Errorf("hot request malformed: %s %s", r.Path, r.Body)
			}
		case ClassCold:
			if r.Path != "/v1/optimize" || !strings.Contains(string(r.Body), `"soc_text"`) {
				t.Errorf("cold request malformed: %s", r.Path)
			}
			if coldBodies[string(r.Body)] {
				t.Errorf("cold request %d repeats an earlier body (must be cache-cold)", r.Index)
			}
			coldBodies[string(r.Body)] = true
		case ClassSweep:
			if r.Path != "/v1/sweep" || !strings.Contains(string(r.Body), `"depths"`) {
				t.Errorf("sweep request malformed: %s %s", r.Path, r.Body)
			}
		case ClassCompare:
			if r.Path != "/v1/compare" || !strings.Contains(string(r.Body), `"solvers"`) {
				t.Errorf("compare request malformed: %s %s", r.Path, r.Body)
			}
		case ClassDeadline:
			if r.Path != "/v1/optimize" || !strings.Contains(string(r.Body), `"portfolio"`) {
				t.Errorf("deadline request malformed: %s %s", r.Path, r.Body)
			}
		default:
			t.Errorf("unknown class %q", r.Class)
		}
	}
}

// TestScheduleDeadlineClass: deadline requests target /v1/optimize with
// the portfolio solver, a tight timeout, and an inline adversarial SOC;
// depths rotate so bodies spread over distinct cache keys. Appending the
// class must not perturb the draw sequence of pre-existing mixes: a
// schedule built with the default mix (deadline weight 0) contains no
// deadline requests.
func TestScheduleDeadlineClass(t *testing.T) {
	mix := Mix{Deadline: 1}
	sched, err := BuildSchedule(ScheduleOptions{Seed: 9, Rate: 40, Duration: time.Second, Mix: mix})
	if err != nil {
		t.Fatal(err)
	}
	depths := map[string]bool{}
	for _, r := range sched.Requests {
		if r.Class != ClassDeadline {
			t.Fatalf("pure deadline mix produced class %q", r.Class)
		}
		var req server.ScenarioRequest
		if err := json.Unmarshal(r.Body, &req); err != nil {
			t.Fatalf("deadline body does not parse: %v", err)
		}
		if req.Solver != "portfolio" {
			t.Errorf("request %d solver = %q, want portfolio", r.Index, req.Solver)
		}
		if req.TimeoutMS <= 0 {
			t.Errorf("request %d has no timeout", r.Index)
		}
		if req.SOCText == "" {
			t.Errorf("request %d missing inline soc_text", r.Index)
		}
		depths[fmt.Sprintf("%d", int64(req.Depth))] = true
	}
	if len(depths) < 2 {
		t.Errorf("deadline depths do not rotate: %v", depths)
	}

	def, err := BuildSchedule(ScheduleOptions{Seed: 9, Rate: 40, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range def.Requests {
		if r.Class == ClassDeadline {
			t.Fatal("default mix scheduled a deadline request")
		}
	}
}

// TestScheduleJobsClass: jobs requests target /v1/jobs with a submit
// envelope whose inner request is a valid sweep spec, and the class
// never appears in mixes that do not ask for it.
func TestScheduleJobsClass(t *testing.T) {
	sched, err := BuildSchedule(ScheduleOptions{Seed: 13, Rate: 40, Duration: time.Second, Mix: Mix{Jobs: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sched.Requests {
		if r.Class != ClassJobs || r.Path != "/v1/jobs" {
			t.Fatalf("pure jobs mix produced %q %s", r.Class, r.Path)
		}
		var env server.JobSubmitRequest
		if err := json.Unmarshal(r.Body, &env); err != nil {
			t.Fatalf("jobs body does not parse: %v", err)
		}
		if env.Type != "sweep" {
			t.Errorf("request %d type = %q, want sweep", r.Index, env.Type)
		}
		var inner server.SweepRequest
		if err := json.Unmarshal(env.Request, &inner); err != nil {
			t.Fatalf("inner sweep spec does not parse: %v", err)
		}
		if inner.SOC == "" || len(inner.Depths) == 0 {
			t.Errorf("request %d inner spec incomplete: %s", r.Index, env.Request)
		}
	}

	def, err := BuildSchedule(ScheduleOptions{Seed: 13, Rate: 40, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range def.Requests {
		if r.Class == ClassJobs {
			t.Fatal("default mix scheduled a jobs request")
		}
	}
}

// TestScheduleMixRatios draws a large schedule and checks every class
// lands within an absolute tolerance of its weight. The draw is seeded,
// so this never flakes; the ±3% bound at n=3000 (>3σ of binomial noise)
// documents that the tolerance is statistical, not incidental.
func TestScheduleMixRatios(t *testing.T) {
	mix := Mix{Hot: 0.5, Cold: 0.2, Sweep: 0.1, Compare: 0.2}
	sched, err := BuildSchedule(ScheduleOptions{Seed: 11, Rate: 1000, Duration: 3 * time.Second, Mix: mix})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Class]int{}
	for _, r := range sched.Requests {
		counts[r.Class]++
	}
	n := float64(len(sched.Requests))
	for _, c := range Classes {
		got := float64(counts[c]) / n
		want := mix.weight(c) / mix.total()
		if got < want-0.03 || got > want+0.03 {
			t.Errorf("class %s frequency %.3f, want %.3f ±0.03 (n=%d)", c, got, want, len(sched.Requests))
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	for _, c := range []ScheduleOptions{
		{Seed: 1, Rate: 0, Duration: time.Second},
		{Seed: 1, Rate: 10, Duration: 0},
		{Seed: 1, Rate: 10, Duration: time.Second, Mix: Mix{Hot: -1, Cold: 2}},
		{Seed: 1, Rate: 10, Duration: time.Second, SOCs: []string{"no-such-soc"}},
	} {
		if _, err := BuildSchedule(c); err == nil {
			t.Errorf("BuildSchedule(%+v) accepted invalid options", c)
		}
	}
}

// TestRunEndToEnd replays a short mixed schedule against a real
// in-process server and checks the report: every class present with
// nonzero percentiles, no errors, a hot-class cache hit rate above zero,
// and a scraped server-side hit rate above zero.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live replay")
	}
	srv, err := server.NewWithData(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// High rate over a short wall-clock window: the mix quota per class
	// comes from the request count, not the duration.
	sched, err := BuildSchedule(ScheduleOptions{Seed: 3, Rate: 400, Duration: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), sched, RunOptions{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != len(sched.Requests) {
		t.Errorf("replayed %d of %d requests", res.Total, len(sched.Requests))
	}
	if res.Errors != 0 {
		t.Errorf("%d errors in replay", res.Errors)
	}
	if res.ResponsesPerSec <= 0 {
		t.Errorf("responses/sec = %v", res.ResponsesPerSec)
	}
	seen := map[Class]bool{}
	for _, c := range res.Classes {
		seen[c.Class] = true
		if c.Count == 0 {
			continue
		}
		if c.P50Ms <= 0 || c.P90Ms <= 0 || c.P99Ms <= 0 {
			t.Errorf("class %s percentiles not all positive: %+v", c.Class, c)
		}
		if c.P50Ms > c.P99Ms {
			t.Errorf("class %s p50 %.3f > p99 %.3f", c.Class, c.P50Ms, c.P99Ms)
		}
		if c.Class == ClassHot && c.CacheHits == 0 {
			t.Errorf("hot class saw no cache hits: %+v", c)
		}
		if c.Class == ClassCold && c.CacheHits > 0 {
			t.Errorf("cold class saw cache hits — synthetic chips must be unique: %+v", c)
		}
	}
	for _, c := range Classes {
		if sched.Mix.weight(c) > 0 && !seen[c] {
			t.Errorf("class %s absent from the report", c)
		}
	}
	if !res.Server.Scraped {
		t.Error("server metrics not scraped")
	} else if res.Server.HitRate <= 0 {
		t.Errorf("server-side hit rate = %v, want > 0", res.Server.HitRate)
	}

	// The report serializes and renders.
	var sb strings.Builder
	if err := res.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hot", "cold", "sweep", "compare", "responses/sec", "hit rate"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table missing %q:\n%s", want, sb.String())
		}
	}
	var jb bytes.Buffer
	if err := res.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(jb.Bytes(), &back); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if back.Total != res.Total || len(back.Classes) != len(res.Classes) {
		t.Errorf("JSON round trip lost data: %+v", back)
	}
}

// TestRunJobsClass replays a jobs-heavy mix against a durable server:
// every 202 counts as a success, none as an error.
func TestRunJobsClass(t *testing.T) {
	if testing.Short() {
		t.Skip("live replay")
	}
	srv, err := server.NewWithData(server.Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close(context.Background())

	sched, err := BuildSchedule(ScheduleOptions{
		Seed: 17, Rate: 60, Duration: 300 * time.Millisecond,
		Mix: Mix{Hot: 0.5, Jobs: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), sched, RunOptions{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("%d errors in jobs replay", res.Errors)
	}
	found := false
	for _, c := range res.Classes {
		if c.Class == ClassJobs {
			found = true
			if c.Count == 0 || c.Errors != 0 {
				t.Errorf("jobs class report = %+v", c)
			}
		}
	}
	if !found {
		t.Error("jobs class absent from the report")
	}
}

// TestRunCancelled: a cancelled context stops the launch loop and
// reports the prefix.
func TestRunCancelled(t *testing.T) {
	srv, err := server.NewWithData(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sched, err := BuildSchedule(ScheduleOptions{Seed: 5, Rate: 10, Duration: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := Run(ctx, sched, RunOptions{BaseURL: ts.URL})
	if err == nil {
		t.Error("cancelled run reported no error")
	}
	if res == nil || res.Total >= len(sched.Requests) {
		t.Errorf("cancelled run did not truncate: %+v", res)
	}
}

// TestRunLatencyFromDueTime: five requests due at once against one
// in-flight slot and a 50 ms server queue behind each other, and that
// wait is part of their latency rather than dropped from it.
func TestRunLatencyFromDueTime(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		time.Sleep(50 * time.Millisecond)
	}))
	defer ts.Close()
	sched := &Schedule{Requests: make([]Request, 5)}
	for i := range sched.Requests {
		sched.Requests[i] = Request{Index: i, Class: ClassHot, Path: "/v1/optimize", Body: json.RawMessage(`{}`)}
	}
	res, err := Run(context.Background(), sched, RunOptions{BaseURL: ts.URL, MaxInflight: 1, NoScrape: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || len(res.Classes) != 1 || res.Classes[0].Count != 5 {
		t.Fatalf("run = %+v", res)
	}
	// The last request waits for the four ahead of it (4 × 50 ms) before
	// it is sent, then takes its own 50 ms.
	if p99 := res.Classes[0].P99Ms; p99 < 200 {
		t.Errorf("p99 = %.1f ms, want ≥ 200 (the queueing behind the in-flight bound)", p99)
	}
	if res.LateP99Ms < 200 {
		t.Errorf("late p99 = %.1f ms, want ≥ 200", res.LateP99Ms)
	}
}

// TestRunShortSweepFails: a 200 sweep whose body ends short of the rows
// its X-Sweep-Scenarios header declares counts as a failed request; one
// that delivers them all does not.
func TestRunShortSweepFails(t *testing.T) {
	for _, c := range []struct{ sent, errors int }{{2, 1}, {3, 0}} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Sweep-Scenarios", "3")
			for i := 0; i < c.sent; i++ {
				fmt.Fprintf(w, "{\"row\":%d}\n", i)
			}
		}))
		sched := &Schedule{Requests: []Request{{Class: ClassSweep, Path: "/v1/sweep", Body: json.RawMessage(`{}`)}}}
		res, err := Run(context.Background(), sched, RunOptions{BaseURL: ts.URL, NoScrape: true})
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Total != 1 || res.Errors != c.errors {
			t.Errorf("%d of 3 declared rows: %d requests, %d errors; want 1 and %d", c.sent, res.Total, res.Errors, c.errors)
		}
	}
}

func TestPercentile(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 5}, {0.90, 9}, {0.99, 10}, {1.0, 10}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]time.Duration{7}, 0.99); got != 7 {
		t.Errorf("single-sample percentile = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}
