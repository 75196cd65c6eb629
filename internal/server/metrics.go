package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"multisite/internal/fleet"
)

// durationBuckets are the per-endpoint latency histogram upper bounds in
// seconds, Prometheus-convention: a cached optimize lands in the
// sub-millisecond buckets, a cold PNX8550 design in the tens of
// milliseconds, a full sweep or a deadline-bounded compare in the
// seconds. The +Inf bucket is implicit (the final counts slot).
var durationBuckets = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram, lock-free on the
// observe path: one atomic add per request into the first bucket whose
// bound holds the sample, cumulated only at render time.
type histogram struct {
	counts [len(durationBuckets) + 1]atomic.Int64 // +1: the +Inf bucket
	sumNs  atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	sec := d.Seconds()
	i := sort.SearchFloat64s(durationBuckets[:], sec)
	// SearchFloat64s finds the first bound >= sec; Prometheus buckets are
	// le-inclusive, so that is exactly the bucket — or +Inf when past all.
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
}

// write renders the histogram as Prometheus text-format samples
// (cumulative _bucket lines, then _sum and _count) for one endpoint
// label value.
func (h *histogram) write(w io.Writer, name, endpoint string) {
	var cum int64
	for i, bound := range durationBuckets[:] {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{endpoint=%q,le=%q} %d\n",
			name, endpoint, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	cum += h.counts[len(durationBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, endpoint, cum)
	fmt.Fprintf(w, "%s_sum{endpoint=%q} %s\n", name, endpoint,
		strconv.FormatFloat(float64(h.sumNs.Load())/1e9, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count{endpoint=%q} %d\n", name, endpoint, cum)
}

// instrument wraps one endpoint's handler with its request counter and
// latency histogram. The count is taken before the handler runs (a
// metrics scrape sees itself, as it always has); the duration covers the
// full handler including response streaming, so a sweep's sample is the
// whole NDJSON delivery, which is what a client experiences.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	counter := s.requests[endpoint]
	hist := s.durations[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		counter.Add(1)
		start := time.Now()
		h(w, r)
		hist.observe(time.Since(start))
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	endpoints := make([]string, 0, len(s.requests))
	for ep := range s.requests {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)

	header := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	header("multisite_requests_total", "Requests received, by endpoint.", "counter")
	for _, ep := range endpoints {
		fmt.Fprintf(w, "multisite_requests_total{endpoint=%q} %d\n", ep, s.requests[ep].Load())
	}

	header("multisite_request_duration_seconds", "Request latency in seconds, by endpoint, measured over the full handler including response streaming.", "histogram")
	for _, ep := range endpoints {
		s.durations[ep].write(w, "multisite_request_duration_seconds", ep)
	}

	st := s.cache.Stats()
	counter := func(name, help string, v int64) {
		header(name, help, "counter")
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
	gauge := func(name, help string, v int64) {
		header(name, help, "gauge")
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
	counter("multisite_cache_hits_total", "Result-cache requests served from stored bytes.", st.Hits)
	counter("multisite_cache_dedups_total", "Result-cache requests that joined an in-flight identical compute.", st.Dedups)
	counter("multisite_cache_computes_total", "Result-cache requests that ran the compute function.", st.Misses)
	counter("multisite_cache_evictions_total", "Result-cache entries evicted by the LRU bound.", st.Evictions)
	counter("multisite_cache_failures_total", "Result-cache computes that returned an error (never cached).", st.Failures)
	counter("multisite_cache_uncacheable_total", "Result-cache computes that succeeded but declined storage (degraded results).", st.Uncacheable)
	gauge("multisite_cache_entries", "Result-cache entries currently stored.", int64(st.Entries))
	memoReq, memoMiss := s.memo.Stats()
	counter("multisite_memo_requests_total", "Design-memo lookups.", memoReq)
	counter("multisite_memo_designs_total", "Design-memo lookups that computed a fresh Step 1+2 design.", memoMiss)
	gauge("multisite_memo_entries", "Design-memo entries currently live.", int64(s.memo.Len()))
	counter("multisite_sweep_rows_total", "Sweep NDJSON rows delivered.", s.sweepRows.Load())
	gauge("multisite_compute_inflight", "Optimizations currently holding a compute slot.", s.inflight.Load())
	gauge("multisite_compute_budget", "Server-wide concurrent-optimization budget.", int64(cap(s.sem)))
	counter("multisite_client_cancels_total", "Requests whose client disconnected mid-compute (not server timeouts).", s.clientCancels.Load())
	counter("multisite_degraded_responses_total", "200 responses carrying a degraded (best-effort, uncached) result.", s.degraded.Load())
	counter("multisite_anytime_events_total", "NDJSON anytime events streamed.", s.anytimeEvents.Load())

	ready := int64(0)
	if s.jobsReady() {
		ready = 1
	}
	gauge("multisite_ready", "1 once the job journal replay has finished (readiness, as /readyz reports it).", ready)
	if s.disk != nil {
		dst := s.disk.Stats()
		counter("multisite_diskcache_hits_total", "Disk-cache reads served from a verified entry.", dst.Hits)
		counter("multisite_diskcache_misses_total", "Disk-cache reads of absent keys.", dst.Misses)
		counter("multisite_diskcache_puts_total", "Disk-cache entries committed.", dst.Puts)
		counter("multisite_diskcache_quarantined_total", "Corrupt disk-cache entries quarantined before they could be served.", dst.Quarantined)
		counter("multisite_diskcache_read_errors_total", "Disk-cache reads that failed (EIO shapes; entries not condemned).", dst.ReadErrors)
		counter("multisite_diskcache_write_errors_total", "Disk-cache puts that failed to commit.", dst.WriteErrors)
		gauge("multisite_diskcache_entries", "Disk-cache entries currently on disk.", dst.Entries)
	}
	if s.jobMgr != nil {
		jst := s.jobMgr.Stats()
		counter("multisite_jobs_enqueued_total", "Jobs accepted (enqueue record fsynced).", jst.Enqueued)
		counter("multisite_jobs_completed_total", "Jobs finished with a durable result.", jst.Completed)
		counter("multisite_jobs_failed_total", "Jobs failed permanently.", jst.Failed)
		counter("multisite_jobs_retried_total", "Transient-failure job re-runs.", jst.Retried)
		counter("multisite_jobs_recovered_total", "Jobs re-enqueued by startup replay (interrupted, or completed with a lost blob).", jst.Recovered)
		counter("multisite_jobs_journal_corrupt_records_total", "Journal lines dropped by checksum or decode failure during replay.", jst.CorruptRecords)
		gauge("multisite_jobs_running", "Job attempts currently executing.", jst.Running)
		gauge("multisite_jobs_pending", "Jobs accepted and waiting for a worker.", jst.Pending)
	}

	if s.shard != "" {
		gauge("multisite_fleet_shard_index", "This peer's index in the sorted fleet member list (its label's number).", int64(fleet.LabelIndex(s.shard)))
	}

	// Per-backend circuit-breaker state: 0=closed, 1=open, 2=half-open.
	snaps := s.breakers.Snapshots()
	header("multisite_breaker_state", "Circuit-breaker state per backend (0=closed, 1=open, 2=half-open).", "gauge")
	for _, b := range snaps {
		fmt.Fprintf(w, "multisite_breaker_state{backend=%q} %d\n", b.Backend, int(b.State))
	}
	header("multisite_breaker_trips_total", "Circuit-breaker transitions into the open state, per backend.", "counter")
	for _, b := range snaps {
		fmt.Fprintf(w, "multisite_breaker_trips_total{backend=%q} %d\n", b.Backend, b.Trips)
	}
	header("multisite_breaker_rejects_total", "Calls rejected by an open circuit breaker, per backend.", "counter")
	for _, b := range snaps {
		fmt.Fprintf(w, "multisite_breaker_rejects_total{backend=%q} %d\n", b.Backend, b.Rejects)
	}
}
