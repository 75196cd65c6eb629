package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// RunOptions parameterize a replay.
type RunOptions struct {
	// BaseURL is the server to load, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// MaxInflight bounds concurrently outstanding requests; once the
	// bound is hit, later arrivals wait for a slot (the generator
	// degrades closed-loop under overload instead of spawning without
	// bound), and that wait counts in their latency. 0 means 64.
	MaxInflight int
	// NoScrape skips the /metrics scrape (for servers that are not
	// cmd/serve).
	NoScrape bool
	// Peers lists the fleet's shard addresses (host:port). When set,
	// each peer's /metrics is scraped before and after the run and the
	// report gains per-shard request shares and hit rates plus the
	// fleet-wide skew (Result.Fleet); the run-wide ServerStats become
	// the sum over shards, since a gateway BaseURL has no cache of its
	// own to scrape.
	Peers []string
}

// sample is one completed request's measurement.
type sample struct {
	class Class
	// latency runs from the request's due instant (run start + At) to
	// the end of its response, so a send held back by the in-flight
	// bound or a late timer is counted, not omitted.
	latency time.Duration
	// late is the send instant minus the due instant.
	late time.Duration
	err  bool
	// cache is "hit", "miss", or "" (endpoint does not report X-Cache).
	cache string
	// degraded is true when the response carried X-Degraded: a 200 whose
	// result is best-effort (deadline hit before the exact leg finished).
	degraded bool
}

// ClassReport aggregates one traffic class of a finished run. Latency
// runs from each request's scheduled arrival, not from its send, and its
// percentiles are nearest-rank over successful requests only; errors are
// counted, not timed.
type ClassReport struct {
	Class  Class `json:"class"`
	Count  int   `json:"count"`
	Errors int   `json:"errors"`

	// CacheHits/CacheMisses classify responses carrying an X-Cache
	// header (the /v1/optimize byte cache); other endpoints leave both 0.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`

	// Degraded counts 200 responses carrying X-Degraded — best-effort
	// results a deadline-bounded portfolio returned instead of a 504.
	Degraded int `json:"degraded,omitempty"`

	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// ServerStats is the server-side /metrics delta over the run. HitRate
// counts dedups as hits: a deduplicated request was served without a
// fresh compute, which is what the rate is measuring.
type ServerStats struct {
	Scraped       bool    `json:"scraped"`
	CacheHits     int64   `json:"cache_hits"`
	CacheDedups   int64   `json:"cache_dedups"`
	CacheComputes int64   `json:"cache_computes"`
	HitRate       float64 `json:"cache_hit_rate"`
	// Degraded is the server-side count of degraded 200s over the run
	// (multisite_degraded_responses_total).
	Degraded int64 `json:"degraded,omitempty"`
	// BreakerTrips sums circuit-breaker open transitions across backends
	// over the run (multisite_breaker_trips_total, all labels).
	BreakerTrips int64 `json:"breaker_trips,omitempty"`
	// BreakerRejects sums calls rejected by open breakers across
	// backends over the run (multisite_breaker_rejects_total).
	BreakerRejects int64 `json:"breaker_rejects,omitempty"`
}

// Result is a finished run's report.
type Result struct {
	Date     string        `json:"date"`
	Seed     int64         `json:"seed"`
	Rate     float64       `json:"rate"`
	Duration time.Duration `json:"duration_ns"`
	Elapsed  time.Duration `json:"elapsed_ns"`

	Total           int     `json:"total"`
	Errors          int     `json:"errors"`
	ResponsesPerSec float64 `json:"responses_per_sec"`
	// LateP99Ms is the p99 over every sent request of its send instant
	// minus its due instant: how far the generator fell behind its
	// schedule.
	LateP99Ms float64 `json:"late_p99_ms"`

	Classes []ClassReport `json:"classes"`
	Server  ServerStats   `json:"server"`
	// Fleet holds the per-shard breakdown when the run scraped fleet
	// peers (RunOptions.Peers); nil for single-node runs.
	Fleet *FleetStats `json:"fleet,omitempty"`
}

// Run replays the schedule against the server, open-loop: each request
// launches at its scheduled offset (subject to MaxInflight), and the
// report aggregates what came back. A cancelled context stops launching
// new requests and reports the completed prefix; the error is ctx.Err().
func Run(ctx context.Context, sched *Schedule, opts RunOptions) (*Result, error) {
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: RunOptions.BaseURL is required")
	}
	base := strings.TrimSuffix(opts.BaseURL, "/")
	inflight := opts.MaxInflight
	if inflight <= 0 {
		inflight = 64
	}
	// A dedicated client with a connection pool sized for the run.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        inflight,
		MaxIdleConnsPerHost: inflight,
	}}

	var before metricsSnapshot
	scraped := false
	var fleetBefore []peerScrape
	if !opts.NoScrape {
		if len(opts.Peers) > 0 {
			fleetBefore = scrapeFleet(ctx, client, opts.Peers)
		} else if m, err := scrapeMetrics(ctx, client, base); err == nil {
			before, scraped = m, true
		}
	}

	var (
		mu      sync.Mutex
		samples = make([]sample, 0, len(sched.Requests))
		wg      sync.WaitGroup
		sem     = make(chan struct{}, inflight)
	)
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	var launchErr error
	for i := range sched.Requests {
		req := &sched.Requests[i]
		if d := req.At - time.Since(start); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				launchErr = ctx.Err()
			}
		}
		if launchErr == nil {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				launchErr = ctx.Err()
			}
		}
		if launchErr != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			s := send(ctx, client, base, req, start.Add(req.At))
			mu.Lock()
			samples = append(samples, s)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := aggregate(sched, samples, elapsed)
	if fleetBefore != nil {
		fleetAfter := scrapeFleet(context.Background(), client, opts.Peers)
		res.Fleet, res.Server = diffFleet(opts.Peers, fleetBefore, fleetAfter)
	} else if scraped {
		if after, err := scrapeMetrics(context.Background(), client, base); err == nil {
			res.Server = diffMetrics(before, after)
		}
	}
	return res, launchErr
}

// send issues one scheduled request, due at the instant due, and fully
// consumes the response — for a sweep that means draining the whole
// NDJSON stream, so the sample is the end-to-end delivery a client
// experiences. A sweep that ends short of the rows its
// X-Sweep-Scenarios header declares failed, whatever its status: a
// server timeout or a cut relay can end a 200 stream early.
func send(ctx context.Context, client *http.Client, base string, r *Request, due time.Time) sample {
	s := sample{class: r.Class, late: time.Since(due)}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		s.err = true
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		s.err = true
		s.latency = time.Since(due)
		return s
	}
	var rows rowCounter
	_, copyErr := io.Copy(&rows, resp.Body)
	resp.Body.Close()
	s.latency = time.Since(due)
	// 202 is the jobs class's success: the submission was journaled and
	// accepted; the compute happens after the response.
	if copyErr != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted) {
		s.err = true
		return s
	}
	if declared := resp.Header.Get("X-Sweep-Scenarios"); declared != "" {
		if want, err := strconv.Atoi(declared); err != nil || int(rows) < want {
			s.err = true
			return s
		}
	}
	s.cache = resp.Header.Get("X-Cache")
	s.degraded = resp.Header.Get("X-Degraded") == "true"
	return s
}

// rowCounter counts the '\n'-terminated rows of a body as it drains.
type rowCounter int

func (c *rowCounter) Write(p []byte) (int, error) {
	*c += rowCounter(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}

func aggregate(sched *Schedule, samples []sample, elapsed time.Duration) *Result {
	res := &Result{
		Date:     time.Now().Format("2006-01-02"),
		Seed:     sched.Seed,
		Rate:     sched.Rate,
		Duration: sched.Duration,
		Elapsed:  elapsed,
	}
	byClass := make(map[Class][]sample, len(Classes))
	late := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		byClass[s.class] = append(byClass[s.class], s)
		late = append(late, s.late)
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	res.LateP99Ms = ms(percentile(late, 0.99))
	ok := 0
	for _, c := range Classes {
		group := byClass[c]
		if len(group) == 0 {
			continue
		}
		cr := ClassReport{Class: c, Count: len(group)}
		var lat []time.Duration
		var sum time.Duration
		for _, s := range group {
			if s.err {
				cr.Errors++
				continue
			}
			lat = append(lat, s.latency)
			sum += s.latency
			switch s.cache {
			case "hit":
				cr.CacheHits++
			case "miss":
				cr.CacheMisses++
			}
			if s.degraded {
				cr.Degraded++
			}
		}
		ok += len(lat)
		if len(lat) > 0 {
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			cr.P50Ms = ms(percentile(lat, 0.50))
			cr.P90Ms = ms(percentile(lat, 0.90))
			cr.P99Ms = ms(percentile(lat, 0.99))
			cr.MeanMs = ms(sum / time.Duration(len(lat)))
			cr.MaxMs = ms(lat[len(lat)-1])
		}
		res.Total += cr.Count
		res.Errors += cr.Errors
		res.Classes = append(res.Classes, cr)
	}
	if elapsed > 0 {
		res.ResponsesPerSec = float64(ok) / elapsed.Seconds()
	}
	return res
}

// percentile is nearest-rank on an ascending-sorted slice: the smallest
// sample with at least q·n samples at or below it.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.9999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricsSnapshot holds the counter values loadgen reads from /metrics.
// trips and rejects are the labeled per-backend breaker counters summed
// across backends.
type metricsSnapshot struct {
	hits, dedups, computes int64
	degraded               int64
	trips, rejects         int64
	// requests sums multisite_requests_total over the compute endpoints
	// (optimize, sweep, compare, jobs) — the per-shard traffic measure
	// for fleet runs; probe and metrics endpoints are excluded so the
	// scrape does not count itself.
	requests int64
}

func scrapeMetrics(ctx context.Context, client *http.Client, base string) (metricsSnapshot, error) {
	var snap metricsSnapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return snap, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return snap, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return snap, err
	}
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("loadgen: GET /metrics: status %d", resp.StatusCode)
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		switch fields[0] {
		case "multisite_cache_hits_total":
			snap.hits = v
		case "multisite_cache_dedups_total":
			snap.dedups = v
		case "multisite_cache_computes_total":
			snap.computes = v
		case "multisite_degraded_responses_total":
			snap.degraded = v
		}
		// The breaker counters are labeled per backend; sum the labels.
		switch {
		case strings.HasPrefix(fields[0], "multisite_breaker_trips_total{"):
			snap.trips += v
		case strings.HasPrefix(fields[0], "multisite_breaker_rejects_total{"):
			snap.rejects += v
		}
		switch fields[0] {
		case `multisite_requests_total{endpoint="optimize"}`,
			`multisite_requests_total{endpoint="sweep"}`,
			`multisite_requests_total{endpoint="compare"}`,
			`multisite_requests_total{endpoint="jobs"}`:
			snap.requests += v
		}
	}
	return snap, nil
}

func diffMetrics(before, after metricsSnapshot) ServerStats {
	st := ServerStats{
		Scraped:        true,
		CacheHits:      after.hits - before.hits,
		CacheDedups:    after.dedups - before.dedups,
		CacheComputes:  after.computes - before.computes,
		Degraded:       after.degraded - before.degraded,
		BreakerTrips:   after.trips - before.trips,
		BreakerRejects: after.rejects - before.rejects,
	}
	if total := st.CacheHits + st.CacheDedups + st.CacheComputes; total > 0 {
		st.HitRate = float64(st.CacheHits+st.CacheDedups) / float64(total)
	}
	return st
}
