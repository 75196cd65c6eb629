package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
)

// WriteTable renders the run report as an aligned human table: one row
// per traffic class, then the run-wide throughput and cache lines.
func (r *Result) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "class\tcount\terrors\tdegraded\thits\tp50 ms\tp90 ms\tp99 ms\tmean ms\tmax ms")
	for _, c := range r.Classes {
		hits := "-"
		if c.CacheHits+c.CacheMisses > 0 {
			hits = fmt.Sprintf("%d/%d", c.CacheHits, c.CacheHits+c.CacheMisses)
		}
		degraded := "-"
		if c.Degraded > 0 {
			degraded = fmt.Sprintf("%d", c.Degraded)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			c.Class, c.Count, c.Errors, degraded, hits, c.P50Ms, c.P90Ms, c.P99Ms, c.MeanMs, c.MaxMs)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%d requests in %.2fs (target rate %.1f/s, seed %d): %.1f responses/sec, %d errors, sends p99 %.2f ms late\n",
		r.Total, r.Elapsed.Seconds(), r.Rate, r.Seed, r.ResponsesPerSec, r.Errors, r.LateP99Ms)
	if r.Server.Scraped {
		fmt.Fprintf(w, "server cache: %d hits + %d dedups / %d computes — hit rate %.1f%%\n",
			r.Server.CacheHits, r.Server.CacheDedups, r.Server.CacheComputes, 100*r.Server.HitRate)
		if r.Server.Degraded > 0 || r.Server.BreakerTrips > 0 || r.Server.BreakerRejects > 0 {
			fmt.Fprintf(w, "server resilience: %d degraded responses, %d breaker trips, %d breaker rejects\n",
				r.Server.Degraded, r.Server.BreakerTrips, r.Server.BreakerRejects)
		}
	}
	if r.Fleet != nil {
		fmt.Fprintln(w)
		tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "shard\tpeer\trequests\tshare\thit rate")
		for _, s := range r.Fleet.Shards {
			if !s.Scraped {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t- (unreachable)\n", s.Shard, s.Peer)
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f%%\t%.1f%%\n",
				s.Shard, s.Peer, s.Requests, 100*s.Share, 100*s.HitRate)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(w, "fleet skew: hottest shard at %.2fx the ideal 1/%d share, hit-rate spread %.1fpp\n",
			r.Fleet.RequestSkew, len(r.Fleet.Shards), 100*r.Fleet.HitRateSpread)
	}
	return nil
}

// WriteJSON writes the machine-readable record, indented — the
// LOADGEN_<date>.json trajectory point alongside cmd/bench's
// BENCH_<date>.json.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
