package fleettest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"multisite/internal/fleet"
	"multisite/internal/jobs"
	"multisite/internal/loadgen"
	"multisite/internal/server"
)

func post(t *testing.T, url, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("POST %s: read body: %v", path, err)
	}
	return resp, data
}

func get(t *testing.T, url, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, data
}

// TestFleetByteIdenticalToSingleNode is the fleet's correctness anchor:
// the PR 6 mixed loadgen profile (hot/cold/sweep/compare — the
// deterministic classes), replayed through a 3-shard fleet behind the
// gateway, answers byte-for-byte what a single-node server answers, and
// every response comes from the shard the ring owns the key to.
func TestFleetByteIdenticalToSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e in -short")
	}
	sched, err := loadgen.BuildSchedule(loadgen.ScheduleOptions{
		Seed: 7, Rate: 40, Duration: 2 * time.Second, Mix: loadgen.DefaultMix,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithData(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(srv.Handler())
	defer single.Close()
	f := Start(t, 3, t.TempDir(), server.Options{})
	ring := fleet.New(f.PeerAddrs)

	shardsSeen := map[string]int{}
	for _, req := range sched.Requests {
		wantResp, wantBody := post(t, single.URL, req.Path, req.Body)
		gotResp, gotBody := post(t, f.GatewayURL, req.Path, req.Body)
		if gotResp.StatusCode != wantResp.StatusCode {
			t.Fatalf("req %d (%s %s): fleet status %d, single-node %d",
				req.Index, req.Class, req.Path, gotResp.StatusCode, wantResp.StatusCode)
		}
		if !bytes.Equal(gotBody, wantBody) {
			t.Fatalf("req %d (%s %s): fleet response differs from single-node:\nfleet:  %.200s\nsingle: %.200s",
				req.Index, req.Class, req.Path, gotBody, wantBody)
		}
		// The answering shard must be the ring owner of the request's key.
		key, _, err := server.FleetRouteKey(req.Path, req.Body)
		if err != nil {
			t.Fatalf("req %d: route key: %v", req.Index, err)
		}
		wantLabel, err := fleet.ShardLabel(f.PeerAddrs, ring.Owners(key, 1)[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := gotResp.Header.Get(server.HeaderShard); got != wantLabel {
			t.Fatalf("req %d: served by shard %q, ring owner is %q", req.Index, got, wantLabel)
		}
		shardsSeen[wantLabel]++
	}
	if len(shardsSeen) < 2 {
		t.Errorf("traffic landed on %d shard(s) (%v); the profile should spread across the ring", len(shardsSeen), shardsSeen)
	}
	// Optimize responses expose the content-addressed key end to end.
	optBody := []byte(`{"soc":"d695","channels":256,"depth":"64K"}`)
	key, _, _ := server.FleetRouteKey("/v1/optimize", optBody)
	resp, _ := post(t, f.GatewayURL, "/v1/optimize", optBody)
	if got := resp.Header.Get(server.HeaderCacheKey); got != key {
		t.Errorf("gateway X-Cache-Key = %q, want %q", got, key)
	}
}

// replay sends a schedule through the gateway sequentially, returning
// the accepted (202) job IDs and the count of 5xx responses.
func replay(t *testing.T, url string, reqs []loadgen.Request) (jobIDs []string, fiveXX int) {
	t.Helper()
	for _, req := range reqs {
		resp, body := post(t, url, req.Path, req.Body)
		if resp.StatusCode >= 500 {
			fiveXX++
			t.Logf("5xx: %s %s -> %d %.200s", req.Class, req.Path, resp.StatusCode, body)
		}
		if req.Class == loadgen.ClassJobs && resp.StatusCode == http.StatusAccepted {
			var snap jobs.Snapshot
			if err := json.Unmarshal(body, &snap); err != nil || snap.ID == "" {
				t.Fatalf("job 202 body: %v (%.200s)", err, body)
			}
			jobIDs = append(jobIDs, snap.ID)
		}
	}
	return jobIDs, fiveXX
}

// chaosMix folds durable-job submissions into the deterministic classes.
var chaosMix = loadgen.Mix{Hot: 0.4, Cold: 0.2, Sweep: 0.1, Compare: 0.15, Jobs: 0.15}

// TestFleetKillShardMidRun is the chaos drill: mixed traffic (jobs
// included) through the gateway, one shard hard-killed mid-run.
// Expectations: once the victim's breaker opens the gateway serves zero
// 5xx on new traffic; every accepted job completes (the victim's after
// it reboots and replays its journal); and job results fetched via the
// gateway are byte-identical to fetching direct from the owning shard.
func TestFleetKillShardMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet chaos e2e in -short")
	}
	f := Start(t, 3, t.TempDir(), server.Options{})

	schedA, err := loadgen.BuildSchedule(loadgen.ScheduleOptions{
		Seed: 11, Rate: 30, Duration: 2 * time.Second, Mix: chaosMix,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobsA, fiveXX := replay(t, f.GatewayURL, schedA.Requests)
	if fiveXX != 0 {
		t.Fatalf("healthy fleet served %d 5xx responses", fiveXX)
	}
	if len(jobsA) == 0 {
		t.Fatal("schedule accepted no jobs; the drill needs journaled work to kill")
	}

	// Kill the shard that accepted the first job, so the reboot has a
	// journal with real work to replay.
	victimLabel, _, ok := fleet.SplitShardID(jobsA[0])
	if !ok {
		t.Fatalf("job ID %q is not shard-qualified", jobsA[0])
	}
	victim := f.PeerByLabel(victimLabel)
	victimIdx := -1
	for i, p := range f.Peers {
		if p == victim {
			victimIdx = i
		}
	}
	t.Logf("killing shard %s (%s)", victim.Label, victim.Addr)
	f.Kill(victimIdx)

	// Drive key-varied traffic until the victim's breaker opens: every
	// request with a victim-owned key fails at the transport level,
	// records against the breaker, and retries on the ring successor —
	// so the client sees no 5xx even in this window.
	healthyZero := fmt.Sprintf("multisite_fleet_peer_healthy{peer=%q,shard=%q} 0", victim.Addr, victim.Label)
	opened := false
	for i := 0; !opened; i++ {
		body := []byte(fmt.Sprintf(`{"soc":"d695","channels":128,"depth":"%dK"}`, 32+i))
		if resp, respBody := post(t, f.GatewayURL, "/v1/optimize", body); resp.StatusCode >= 500 {
			t.Fatalf("5xx while tripping the breaker: %d %.200s", resp.StatusCode, respBody)
		}
		if _, m := get(t, f.GatewayURL, "/metrics"); strings.Contains(string(m), healthyZero) {
			opened = true
		}
		if i > 400 {
			break
		}
	}
	if !opened {
		t.Fatal("victim's breaker never opened")
	}

	// With the breaker open, a fresh mixed run (jobs included) must be
	// 5xx-free: the victim's key slice fails over to its ring successor.
	schedC, err := loadgen.BuildSchedule(loadgen.ScheduleOptions{
		Seed: 13, Rate: 30, Duration: 2 * time.Second, Mix: chaosMix,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobsC, fiveXX := replay(t, f.GatewayURL, schedC.Requests)
	if fiveXX != 0 {
		t.Errorf("%d gateway 5xx after the breaker opened; want 0", fiveXX)
	}
	for _, id := range jobsC {
		if label, _, _ := fleet.SplitShardID(id); label == victim.Label {
			t.Errorf("dead shard %s accepted job %s", victim.Label, id)
		}
	}

	// Reboot the victim; its journal replay must finish (readiness) and
	// every accepted job — both shards' — must complete.
	f.Restart(victimIdx)
	all := append(append([]string{}, jobsA...), jobsC...)
	waitJobsDone(t, f.GatewayURL, all, 90*time.Second)

	// Result bytes via the gateway match a direct read from the owner.
	for _, id := range all {
		label, _, _ := fleet.SplitShardID(id)
		owner := f.PeerByLabel(label)
		viaGW, gwBody := get(t, f.GatewayURL, "/v1/jobs/"+id+"/result")
		direct, directBody := get(t, owner.URL(), "/v1/jobs/"+id+"/result")
		if viaGW.StatusCode != http.StatusOK || direct.StatusCode != http.StatusOK {
			t.Fatalf("job %s result: gateway %d, direct %d", id, viaGW.StatusCode, direct.StatusCode)
		}
		if !bytes.Equal(gwBody, directBody) {
			t.Errorf("job %s: gateway result differs from direct-to-owner", id)
		}
	}
}

// waitJobsDone polls each job via the gateway until done (or the
// deadline, which fails the test).
func waitJobsDone(t *testing.T, url string, ids []string, budget time.Duration) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for _, id := range ids {
		for {
			resp, body := get(t, url, "/v1/jobs/"+id)
			var snap jobs.Snapshot
			if resp.StatusCode == http.StatusOK {
				if err := json.Unmarshal(body, &snap); err != nil {
					t.Fatalf("job %s: %v (%.200s)", id, err, body)
				}
				if snap.State == jobs.StateDone {
					break
				}
				if snap.State == jobs.StateFailed {
					t.Fatalf("job %s failed permanently: %s", id, snap.Error)
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s not done before deadline (last: %d %.200s)", id, resp.StatusCode, body)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
}

// TestFleetMergedJobListAndShardDown covers the gateway's job-read
// surface: the merged /v1/jobs view spans shards; killing a shard turns
// its jobs' reads into 503+Retry-After (durable, not lost) and marks
// the merged list partial.
func TestFleetMergedJobListAndShardDown(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e in -short")
	}
	f := Start(t, 2, t.TempDir(), server.Options{})
	ring := fleet.New(f.PeerAddrs)

	// Submit sweep jobs with varied depths until both shards own at
	// least one (the keys spread, but placement is the ring's choice).
	byShard := map[string][]string{}
	for depth := 1; depth <= 32 && len(byShard) < 2; depth++ {
		body := []byte(fmt.Sprintf(`{"type":"sweep","request":{"soc":"d695","channels":128,"depth":"%dM"}}`, depth))
		key, _, err := server.FleetRouteKey("/v1/jobs", body)
		if err != nil {
			t.Fatal(err)
		}
		wantLabel, _ := fleet.ShardLabel(f.PeerAddrs, ring.Owners(key, 1)[0])
		if len(byShard[wantLabel]) > 0 {
			continue
		}
		resp, respBody := post(t, f.GatewayURL, "/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %.200s", resp.StatusCode, respBody)
		}
		var snap jobs.Snapshot
		if err := json.Unmarshal(respBody, &snap); err != nil {
			t.Fatal(err)
		}
		if label, _, _ := fleet.SplitShardID(snap.ID); label != wantLabel {
			t.Fatalf("job %s accepted by %s, ring owner is %s", snap.ID, label, wantLabel)
		}
		byShard[wantLabel] = append(byShard[wantLabel], snap.ID)
	}
	if len(byShard) < 2 {
		t.Fatal("could not spread jobs across both shards")
	}

	_, listBody := get(t, f.GatewayURL, "/v1/jobs")
	for _, ids := range byShard {
		for _, id := range ids {
			if !strings.Contains(string(listBody), id) {
				t.Errorf("merged job list missing %s: %.300s", id, listBody)
			}
		}
	}

	// Kill s0; its job reads answer 503 with Retry-After, the list goes
	// partial, and s1's jobs stay visible.
	f.Kill(0)
	deadID := byShard[f.Peers[0].Label][0]
	liveID := byShard[f.Peers[1].Label][0]
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := get(t, f.GatewayURL, "/v1/jobs/"+deadID)
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("shard-down job read missing Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead shard's job read = %d, want 503", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
	listResp, listBody := get(t, f.GatewayURL, "/v1/jobs")
	if got := listResp.Header.Get("X-Fleet-Partial"); got != f.Peers[0].Label {
		t.Errorf("X-Fleet-Partial = %q, want %q", got, f.Peers[0].Label)
	}
	if !strings.Contains(string(listBody), liveID) {
		t.Errorf("partial list lost the live shard's job %s", liveID)
	}
}

// TestFleetLoadgenPerShardScrape drives the loadgen library through the
// gateway with per-peer scraping on — the programmatic form of
// `loadgen -target <gateway> -peers <shards>` — and checks the fleet
// report: every shard scraped, request shares summing to one, the
// roll-up ServerStats equal to the sum over shards, and the skew
// numbers in sane ranges for a content-addressed ring.
func TestFleetLoadgenPerShardScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e in -short")
	}
	f := Start(t, 3, t.TempDir(), server.Options{})
	sched, err := loadgen.BuildSchedule(loadgen.ScheduleOptions{
		Seed: 21, Rate: 60, Duration: time.Second, Mix: loadgen.DefaultMix,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadgen.Run(context.Background(), sched, loadgen.RunOptions{
		BaseURL: f.GatewayURL, Peers: f.PeerAddrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d of %d requests failed", res.Errors, res.Total)
	}
	if res.Fleet == nil {
		t.Fatal("RunOptions.Peers set but Result.Fleet is nil")
	}
	if len(res.Fleet.Shards) != 3 || res.Fleet.Unreachable != 0 {
		t.Fatalf("fleet = %d shards, %d unreachable; want 3 and 0", len(res.Fleet.Shards), res.Fleet.Unreachable)
	}
	var share float64
	var reqs, hits, dedups, computes int64
	for _, s := range res.Fleet.Shards {
		if !s.Scraped {
			t.Errorf("shard %s not scraped", s.Shard)
		}
		if s.Requests <= 0 {
			t.Errorf("shard %s served %d requests; the default mix should reach every shard", s.Shard, s.Requests)
		}
		share += s.Share
		reqs += s.Requests
		hits += s.CacheHits
		dedups += s.CacheDedups
		computes += s.CacheComputes
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("shard shares sum to %f, want 1", share)
	}
	if reqs < int64(res.Total) {
		t.Errorf("shards saw %d compute requests, loadgen sent %d", reqs, res.Total)
	}
	// The roll-up is the sum over shards — the gateway has no cache.
	if !res.Server.Scraped || res.Server.CacheHits != hits || res.Server.CacheDedups != dedups || res.Server.CacheComputes != computes {
		t.Errorf("ServerStats %+v does not sum the shards (hits %d, dedups %d, computes %d)", res.Server, hits, dedups, computes)
	}
	if res.Fleet.RequestSkew < 1 {
		t.Errorf("RequestSkew = %f; the hottest shard's share over 1/N cannot be below 1", res.Fleet.RequestSkew)
	}
	if res.Fleet.HitRateSpread < 0 || res.Fleet.HitRateSpread > 1 {
		t.Errorf("HitRateSpread = %f outside [0,1]", res.Fleet.HitRateSpread)
	}
	// Kill a shard and scrape again: the dead peer reports unreachable
	// instead of poisoning the report.
	f.Kill(0)
	res2, _ := loadgen.Run(context.Background(), &loadgen.Schedule{}, loadgen.RunOptions{
		BaseURL: f.GatewayURL, Peers: f.PeerAddrs,
	})
	if res2 == nil || res2.Fleet == nil {
		t.Fatal("empty-schedule fleet run returned no fleet report")
	}
	if res2.Fleet.Unreachable != 1 || res2.Fleet.Shards[0].Scraped {
		t.Errorf("after kill: unreachable = %d, shard0 scraped = %v; want 1 and false",
			res2.Fleet.Unreachable, res2.Fleet.Shards[0].Scraped)
	}
}
