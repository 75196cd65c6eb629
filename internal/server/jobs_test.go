package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"multisite/internal/jobs"
)

// newDurableServer builds a server with its durable tier rooted at dir.
func newDurableServer(t *testing.T, dir string, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.DataDir = dir
	if opts.JobBackoff == 0 {
		opts.JobBackoff = 10 * time.Millisecond
	}
	s, err := NewWithData(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close(context.Background())
	})
	return s, ts
}

func submitJob(t *testing.T, ts *httptest.Server, typ, request string) jobs.Snapshot {
	t.Helper()
	resp, data := post(t, ts, "/v1/jobs", fmt.Sprintf(`{"type":%q,"request":%s}`, typ, request))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Errorf("Location = %q", loc)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("submit body: %v: %s", err, data)
	}
	if snap.ID == "" {
		t.Fatalf("submit returned no job id: %s", data)
	}
	return snap
}

func waitJob(t *testing.T, ts *httptest.Server, id string, want jobs.State) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var snap jobs.Snapshot
	for time.Now().Before(deadline) {
		resp, data := get(t, ts, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job status %d: %s", resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatalf("job body: %v: %s", err, data)
		}
		if snap.State == want {
			return snap
		}
		if snap.State == jobs.StateFailed && want != jobs.StateFailed {
			t.Fatalf("job %s failed: %s", id, snap.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s (want %s)", id, snap.State, want)
	return snap
}

func jobResult(t *testing.T, ts *httptest.Server, id string, offset int) []byte {
	t.Helper()
	path := "/v1/jobs/" + id + "/result"
	if offset > 0 {
		path += fmt.Sprintf("?offset=%d", offset)
	}
	resp, data := get(t, ts, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("result Content-Type = %q", ct)
	}
	return data
}

// TestJobOptimizeMatchesSync: an optimize job's durable result is the
// same bytes the synchronous endpoint serves for the same scenario.
func TestJobOptimizeMatchesSync(t *testing.T) {
	_, ts := newDurableServer(t, t.TempDir(), Options{})
	resp, syncData := post(t, ts, "/v1/optimize", optimizeD695)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync status %d", resp.StatusCode)
	}
	snap := submitJob(t, ts, "optimize", optimizeD695)
	done := waitJob(t, ts, snap.ID, jobs.StateDone)
	if done.ResultKey == "" || done.RowsDone != 1 {
		t.Errorf("done snapshot = %+v", done)
	}
	got := jobResult(t, ts, snap.ID, 0)
	if want := string(syncData) + "\n"; string(got) != want {
		t.Errorf("job result differs from synchronous response:\n%s\nvs\n%s", got, syncData)
	}
}

const sweepJobD695 = `{"soc":"d695","channels":256,"depths":"16K,32K,64K"}`

// TestJobKillRestartByteIdentity is the acceptance criterion: kill -9
// (in-process approximation) after a job is accepted loses nothing —
// the restarted server resumes it and produces a result byte-identical
// to a never-killed run's.
func TestJobKillRestartByteIdentity(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, Options{})
	snap := submitJob(t, ts1, "sweep", sweepJobD695)
	// Die right after the 202: the enqueue record is fsynced, the job is
	// pending or mid-attempt.
	s1.CloseAbrupt()
	ts1.Close()

	_, ts2 := newDurableServer(t, dir, Options{})
	done := waitJob(t, ts2, snap.ID, jobs.StateDone)
	if done.RowsDone != 3 {
		t.Errorf("resumed job rows = %d, want 3", done.RowsDone)
	}
	resumed := jobResult(t, ts2, snap.ID, 0)

	// The never-killed control run, same spec, fresh directory.
	_, ts3 := newDurableServer(t, t.TempDir(), Options{})
	ctrl := submitJob(t, ts3, "sweep", sweepJobD695)
	ctrlDone := waitJob(t, ts3, ctrl.ID, jobs.StateDone)
	control := jobResult(t, ts3, ctrl.ID, 0)

	if string(resumed) != string(control) {
		t.Errorf("resumed result differs from uninterrupted run:\n%s\nvs\n%s", resumed, control)
	}
	if done.ResultKey != ctrlDone.ResultKey {
		t.Errorf("result CAS keys differ: %s vs %s", done.ResultKey, ctrlDone.ResultKey)
	}
}

// TestJobResultCorruptionRecomputed is the other acceptance criterion:
// a bit-flipped CAS result blob is quarantined at the next boot and the
// job recomputed — the corrupt bytes are never served.
func TestJobResultCorruptionRecomputed(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, Options{})
	snap := submitJob(t, ts1, "optimize", optimizeD695)
	done := waitJob(t, ts1, snap.ID, jobs.StateDone)
	original := jobResult(t, ts1, snap.ID, 0)
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	key := done.ResultKey
	blobPath := filepath.Join(dir, "cache", "ca", key[:2], key[2:4], key)
	data, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x01
	if err := os.WriteFile(blobPath, data, 0o666); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newDurableServer(t, dir, Options{})
	redone := waitJob(t, ts2, snap.ID, jobs.StateDone)
	if redone.ResultKey != key {
		t.Errorf("recomputed CAS key %s != original %s", redone.ResultKey, key)
	}
	if got := jobResult(t, ts2, snap.ID, 0); string(got) != string(original) {
		t.Errorf("recomputed result differs from original:\n%s\nvs\n%s", got, original)
	}
	_, metrics := get(t, ts2, "/metrics")
	for _, want := range []string{
		"multisite_diskcache_quarantined_total 1",
		"multisite_jobs_recovered_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	qs, err := os.ReadDir(filepath.Join(dir, "cache", "quarantine"))
	if err != nil || len(qs) != 1 {
		t.Errorf("quarantine dir: %v, %d entries; want 1", err, len(qs))
	}
}

// TestReadyzHoldsDuringReplay: liveness answers immediately, readiness
// (and the multisite_ready gauge) hold until the journal replay ends.
func TestReadyzHoldsDuringReplay(t *testing.T) {
	stall := make(chan struct{})
	_, ts := newDurableServer(t, t.TempDir(), Options{JobStallReplay: stall})
	if resp, _ := get(t, ts, "/livez"); resp.StatusCode != http.StatusOK {
		t.Errorf("livez during replay = %d", resp.StatusCode)
	}
	// /healthz aliases readiness: a load balancer polling it must not
	// route traffic to a server still replaying its journal.
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during replay = %d, want 503 (readiness alias)", resp.StatusCode)
	}
	resp, body := get(t, ts, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "replay") {
		t.Errorf("readyz during replay = %d: %s", resp.StatusCode, body)
	}
	if _, m := get(t, ts, "/metrics"); !strings.Contains(string(m), "multisite_ready 0") {
		t.Error("metrics missing multisite_ready 0 during replay")
	}
	close(stall)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := get(t, ts, "/readyz")
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never turned 200 after replay")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, m := get(t, ts, "/metrics"); !strings.Contains(string(m), "multisite_ready 1") {
		t.Error("metrics missing multisite_ready 1 after replay")
	}
}

// TestJobSubmitValidation: the untrusted-path rules of the synchronous
// endpoints apply verbatim at submit time.
func TestJobSubmitValidation(t *testing.T) {
	_, ts := newDurableServer(t, t.TempDir(), Options{})
	cases := []struct {
		name, body string
		status     int
	}{
		{"unknown type", `{"type":"bogus","request":{"soc":"d695"}}`, http.StatusBadRequest},
		{"missing request", `{"type":"optimize"}`, http.StatusBadRequest},
		{"unknown field", `{"type":"optimize","request":{"soc":"d695","bogus":1}}`, http.StatusBadRequest},
		{"unknown soc", `{"type":"optimize","request":{"soc":"nope"}}`, http.StatusNotFound},
		{"unknown solver", `{"type":"optimize","request":{"soc":"d695","solver":"nope"}}`, http.StatusBadRequest},
		{"anytime rejected", `{"type":"optimize","request":{"soc":"d695","anytime":true}}`, http.StatusBadRequest},
		{"soc and soc_text", `{"type":"optimize","request":{"soc":"d695","soc_text":"x"}}`, http.StatusBadRequest},
		{"oversized sweep", `{"type":"sweep","request":{"soc":"d695","depths":"1:8192:1"}}`, http.StatusBadRequest},
		{"sweep unknown solver", `{"type":"sweep","request":{"soc":"d695","solver":"nope"}}`, http.StatusBadRequest},
		{"compare solver field", `{"type":"compare","request":{"soc":"d695","solver":"exact"}}`, http.StatusBadRequest},
		{"compare one solver", `{"type":"compare","request":{"soc":"d695","solvers":["exact"]}}`, http.StatusBadRequest},
		{"valid optimize", `{"type":"optimize","request":{"soc":"d695"}}`, http.StatusAccepted},
	}
	for _, tc := range cases {
		resp, data := post(t, ts, "/v1/jobs", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.status, data)
		}
	}
}

// TestJobsDisabledWithoutDataDir: a purely in-memory server refuses job
// submissions with a pointer at -data-dir, and is ready immediately.
func TestJobsDisabledWithoutDataDir(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, data := post(t, ts, "/v1/jobs", `{"type":"optimize","request":{"soc":"d695"}}`)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(data), "data-dir") {
		t.Errorf("submit without data dir = %d: %s", resp.StatusCode, data)
	}
	if resp, _ := get(t, ts, "/v1/jobs"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("list without data dir = %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz without data dir = %d", resp.StatusCode)
	}
}

// TestJobNotFound: unknown ids are 404s on both job endpoints.
func TestJobNotFound(t *testing.T) {
	_, ts := newDurableServer(t, t.TempDir(), Options{})
	if resp, _ := get(t, ts, "/v1/jobs/j9999999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("get unknown job = %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/jobs/j9999999999/result"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("result of unknown job = %d", resp.StatusCode)
	}
}

// TestJobResultOffsetResumes: the offset cursor serves only the tail,
// which is how an interrupted result download resumes.
func TestJobResultOffsetResumes(t *testing.T) {
	_, ts := newDurableServer(t, t.TempDir(), Options{})
	snap := submitJob(t, ts, "sweep", sweepJobD695)
	waitJob(t, ts, snap.ID, jobs.StateDone)
	full := jobResult(t, ts, snap.ID, 0)
	lines := strings.Split(strings.TrimSuffix(string(full), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("full result has %d rows, want 3", len(lines))
	}
	tail := jobResult(t, ts, snap.ID, 2)
	if want := lines[2] + "\n"; string(tail) != want {
		t.Errorf("offset=2 tail = %q, want %q", tail, want)
	}
	var row SweepRow
	if err := json.Unmarshal(tail, &row); err != nil || row.Index != 2 {
		t.Errorf("tail row = %+v (err %v), want index 2", row, err)
	}
	// An offset past the end yields an empty body, not an error.
	if rest := jobResult(t, ts, snap.ID, 10); len(rest) != 0 {
		t.Errorf("offset past end returned %q", rest)
	}
}

// TestJobListsJobs: the listing carries the submitted job.
func TestJobListsJobs(t *testing.T) {
	_, ts := newDurableServer(t, t.TempDir(), Options{})
	snap := submitJob(t, ts, "optimize", optimizeD695)
	waitJob(t, ts, snap.ID, jobs.StateDone)
	_, data := get(t, ts, "/v1/jobs")
	var list struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatalf("list body: %v: %s", err, data)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != snap.ID || list.Jobs[0].State != jobs.StateDone {
		t.Errorf("list = %+v", list.Jobs)
	}
}

// optimalD695 is a scenario the portfolio proves optimal (see
// TestAnytimeCompletedOptimal); optimalD695Sweep is one sweep row of the
// same design under another cost model.
const (
	optimalD695      = `{"soc":"d695","solver":"portfolio"}`
	optimalD695Sweep = `{"soc":"d695","solver":"portfolio","contact_yields":[0.999]}`
)

// TestDiskCacheWarmsRestart: the L2 disk tier serves a restarted
// process byte hits for scenarios computed before the restart, and every
// tier answers with the snapshot's provenance: X-Optimal on the miss, on
// the L1 hit, on each response of a concurrent herd and on the L2 hit,
// and "optimal":true on a sweep row read from disk.
func TestDiskCacheWarmsRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, Options{})
	resp, first := post(t, ts1, "/v1/optimize", optimizeD695)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("cold X-Cache = %q", got)
	}

	// A herd on a cold key: one request computes, the rest join it or
	// hit the entry it stored.
	headers, bodies := herd(t, ts1, "/v1/optimize", optimalD695, 8)
	if t.Failed() {
		t.FailNow()
	}
	misses := 0
	for i, h := range headers {
		if h.Get("X-Cache") == "miss" {
			misses++
		}
		if h.Get("X-Optimal") != "true" {
			t.Errorf("herd response %d (X-Cache %s): X-Optimal = %q", i, h.Get("X-Cache"), h.Get("X-Optimal"))
		}
		if string(bodies[i]) != string(bodies[0]) {
			t.Errorf("herd response %d has different bytes", i)
		}
	}
	if misses != 1 {
		t.Errorf("herd of %d had %d misses, want 1", len(headers), misses)
	}
	resp, _ = post(t, ts1, "/v1/optimize", optimalD695)
	if resp.Header.Get("X-Cache") != "hit" || resp.Header.Get("X-Optimal") != "true" {
		t.Errorf("L1 hit: X-Cache %q, X-Optimal %q", resp.Header.Get("X-Cache"), resp.Header.Get("X-Optimal"))
	}
	if resp, data := post(t, ts1, "/v1/sweep", optimalD695Sweep); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, data)
	}
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// The restarted process has a cold L1 (X-Cache says miss — the disk
	// read happens inside the compute closure, under singleflight), but
	// the bytes come verified off disk, not from a recompute.
	_, ts2 := newDurableServer(t, dir, Options{})
	_, second := post(t, ts2, "/v1/optimize", optimizeD695)
	if string(first) != string(second) {
		t.Errorf("disk-served bytes differ from computed bytes")
	}
	resp, data := post(t, ts2, "/v1/optimize", optimalD695)
	if resp.Header.Get("X-Cache") != "miss" || resp.Header.Get("X-Optimal") != "true" {
		t.Errorf("L2 hit: X-Cache %q, X-Optimal %q", resp.Header.Get("X-Cache"), resp.Header.Get("X-Optimal"))
	}
	if string(data) != string(bodies[0]) {
		t.Errorf("L2 hit bytes differ from the herd's")
	}
	_, data = post(t, ts2, "/v1/sweep", optimalD695Sweep)
	var row SweepRow
	if err := json.Unmarshal(data, &row); err != nil || !row.Optimal || row.Error != "" {
		t.Errorf("disk-served sweep row %s (err %v), want optimal", data, err)
	}
	if _, m := get(t, ts2, "/metrics"); !strings.Contains(string(m), "multisite_diskcache_hits_total 3") {
		t.Error("metrics missing multisite_diskcache_hits_total 3")
	}
}

// TestDiskEntryNotSnapshotRecomputed: an L2 entry whose checksum holds
// but whose bytes are not a snapshot is never served. The request
// recomputes (X-Cache: miss, the computed bytes) and the compute
// overwrites the disk entry.
func TestDiskEntryNotSnapshotRecomputed(t *testing.T) {
	_, ref := newTestServer(t, Options{})
	resp, want := post(t, ref, "/v1/optimize", optimizeD695)
	key := resp.Header.Get(HeaderCacheKey)

	s, ts := newDurableServer(t, t.TempDir(), Options{})
	if err := s.disk.Put(key, []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	resp, got := post(t, ts, "/v1/optimize", optimizeD695)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("status %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), got)
	}
	if string(got) != string(want) {
		t.Errorf("served %q, want the computed bytes", got)
	}
	if disk, ok := s.disk.Get(key); !ok || string(disk) != string(want) {
		t.Errorf("disk entry = %q (present %v), want it overwritten by the computed bytes", disk, ok)
	}
	if resp, got := post(t, ts, "/v1/optimize", optimizeD695); resp.Header.Get("X-Cache") != "hit" || string(got) != string(want) {
		t.Errorf("repeat: X-Cache %q, bytes %q", resp.Header.Get("X-Cache"), got)
	}
}

// TestJobCompare: a compare job persists the full delta table as one
// row, the same bytes the synchronous endpoint serves.
func TestJobCompare(t *testing.T) {
	const body = `{"soc":"d695","channels":256,"depth":"64K","solvers":["heuristic","baseline"]}`
	_, ts := newDurableServer(t, t.TempDir(), Options{})
	resp, syncData := post(t, ts, "/v1/compare", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync compare status %d: %s", resp.StatusCode, syncData)
	}
	snap := submitJob(t, ts, "compare", body)
	waitJob(t, ts, snap.ID, jobs.StateDone)
	if got := jobResult(t, ts, snap.ID, 0); string(got) != string(syncData) {
		t.Errorf("job result differs from synchronous response:\n%s\nvs\n%s", got, syncData)
	}
}

// TestJobSweepMatchesSync: a sweep job's durable result is the same
// NDJSON bytes the synchronous stream serves, error rows included (d695
// cannot fit one site on 4 channels).
func TestJobSweepMatchesSync(t *testing.T) {
	const body = `{"soc":"d695","channels_list":[4,256],"depths":"48K,64K"}`
	_, ts := newDurableServer(t, t.TempDir(), Options{})
	resp, syncData := post(t, ts, "/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync sweep status %d: %s", resp.StatusCode, syncData)
	}
	if n := strings.Count(string(syncData), `"error"`); n != 2 {
		t.Fatalf("sync sweep has %d error rows, want 2: %s", n, syncData)
	}
	snap := submitJob(t, ts, "sweep", body)
	if done := waitJob(t, ts, snap.ID, jobs.StateDone); done.RowsDone != 4 {
		t.Errorf("job rows = %d, want 4", done.RowsDone)
	}
	if got := jobResult(t, ts, snap.ID, 0); string(got) != string(syncData) {
		t.Errorf("job result differs from synchronous stream:\n%s\nvs\n%s", got, syncData)
	}
}
