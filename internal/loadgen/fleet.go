package loadgen

import (
	"context"
	"net/http"
	"sync"

	"multisite/internal/fleet"
)

// ShardStats is one fleet peer's /metrics delta over the run — the
// per-shard view of where the consistent-hash ring actually sent the
// traffic and how warm each shard's cache ran.
type ShardStats struct {
	Peer  string `json:"peer"`
	Shard string `json:"shard"`
	// Scraped is false when the peer's /metrics could not be read both
	// before and after the run (a shard killed mid-drill, say); the
	// counters are then zero and carry no meaning.
	Scraped bool `json:"scraped"`
	// Requests counts compute-endpoint requests (optimize, sweep,
	// compare, jobs) this shard served over the run: whatever reached
	// it, gateway-routed or sent to it directly.
	Requests      int64   `json:"requests"`
	CacheHits     int64   `json:"cache_hits"`
	CacheDedups   int64   `json:"cache_dedups"`
	CacheComputes int64   `json:"cache_computes"`
	HitRate       float64 `json:"cache_hit_rate"`
	// Share is this shard's fraction of the fleet-wide compute requests.
	Share float64 `json:"request_share"`
}

// FleetStats aggregates the per-shard deltas of a fleet run. The two
// skew numbers are the shared-nothing design's health check: a
// content-addressed ring should spread keys near-uniformly
// (RequestSkew near 1) and give every shard the same hot/cold blend
// (HitRateSpread near 0); a hot shard or a cold shard is a routing or
// placement bug, not a load phenomenon.
type FleetStats struct {
	Shards []ShardStats `json:"shards"`
	// RequestSkew is the hottest shard's request share divided by the
	// ideal 1/N share; 1.0 is a perfectly balanced ring.
	RequestSkew float64 `json:"request_skew"`
	// HitRateSpread is the max−min cache hit rate across scraped shards
	// that served traffic, as a fraction (0.05 = five points of spread).
	HitRateSpread float64 `json:"hit_rate_spread"`
	// Unreachable counts peers whose /metrics could not be scraped.
	Unreachable int `json:"unreachable,omitempty"`
}

// peerScrape is one peer's snapshot attempt.
type peerScrape struct {
	snap metricsSnapshot
	ok   bool
}

// scrapeFleet snapshots every peer's /metrics concurrently. Peer
// addresses are host:port (any scheme prefix is normalized away); a
// peer that cannot be scraped — dead, or mid-restart — reports ok
// false rather than failing the run.
func scrapeFleet(ctx context.Context, client *http.Client, peers []string) []peerScrape {
	out := make([]peerScrape, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap, err := scrapeMetrics(ctx, client, "http://"+fleet.NormalizeAddr(p))
			out[i] = peerScrape{snap: snap, ok: err == nil}
		}()
	}
	wg.Wait()
	return out
}

// diffFleet turns before/after peer snapshots into the per-shard report
// plus the fleet-wide ServerStats roll-up (the gateway itself has no
// cache — the fleet's hit rate is the sum of its shards').
func diffFleet(peers []string, before, after []peerScrape) (*FleetStats, ServerStats) {
	fs := &FleetStats{}
	var total ServerStats
	var totalReq int64
	for i, p := range peers {
		label, err := fleet.ShardLabel(peers, p)
		if err != nil {
			label = "?"
		}
		ss := ShardStats{
			Peer:    fleet.NormalizeAddr(p),
			Shard:   label,
			Scraped: before[i].ok && after[i].ok,
		}
		if ss.Scraped {
			d := diffMetrics(before[i].snap, after[i].snap)
			ss.Requests = after[i].snap.requests - before[i].snap.requests
			ss.CacheHits = d.CacheHits
			ss.CacheDedups = d.CacheDedups
			ss.CacheComputes = d.CacheComputes
			ss.HitRate = d.HitRate
			totalReq += ss.Requests
			total.CacheHits += d.CacheHits
			total.CacheDedups += d.CacheDedups
			total.CacheComputes += d.CacheComputes
			total.Degraded += d.Degraded
			total.BreakerTrips += d.BreakerTrips
			total.BreakerRejects += d.BreakerRejects
			total.Scraped = true
		} else {
			fs.Unreachable++
		}
		fs.Shards = append(fs.Shards, ss)
	}
	if t := total.CacheHits + total.CacheDedups + total.CacheComputes; t > 0 {
		total.HitRate = float64(total.CacheHits+total.CacheDedups) / float64(t)
	}

	var maxShare, minRate, maxRate float64
	minRate = -1
	for i := range fs.Shards {
		ss := &fs.Shards[i]
		if !ss.Scraped {
			continue
		}
		if totalReq > 0 {
			ss.Share = float64(ss.Requests) / float64(totalReq)
			if ss.Share > maxShare {
				maxShare = ss.Share
			}
		}
		if ss.CacheHits+ss.CacheDedups+ss.CacheComputes > 0 {
			if minRate < 0 || ss.HitRate < minRate {
				minRate = ss.HitRate
			}
			if ss.HitRate > maxRate {
				maxRate = ss.HitRate
			}
		}
	}
	if len(peers) > 0 && maxShare > 0 {
		fs.RequestSkew = maxShare * float64(len(peers))
	}
	if minRate >= 0 {
		fs.HitRateSpread = maxRate - minRate
	}
	return fs, total
}
