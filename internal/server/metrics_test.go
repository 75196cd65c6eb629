package server

import (
	"net/http"
	"strconv"
	"strings"
	"testing"

	"multisite/internal/jobs"
)

// normalizeMetrics replaces every sample line's value with "V", keeping
// comment lines (# HELP / # TYPE) verbatim — the metric names, label
// sets, bucket bounds, and help text are the contract the golden pins;
// the values vary run to run (latencies land in different buckets).
func normalizeMetrics(text string) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if j := strings.LastIndexByte(line, ' '); j >= 0 {
			lines[i] = line[:j+1] + "V"
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsGolden pins the full /metrics schema: every metric family's
// HELP and TYPE line, every endpoint's counter and histogram (all bucket
// bounds), in fixed order. A metric rename, a dropped help line, or a
// bucket-bound change must show up as a reviewed golden diff, because
// dashboards and the loadgen scraper key on these names.
func TestMetricsGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	post(t, ts, "/v1/optimize", optimizeD695)
	resp, data := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	checkGolden(t, "metrics.golden", []byte(normalizeMetrics(string(data))))
}

// TestMetricsDurableGolden pins the families only a disk-backed fleet
// peer exports (multisite_jobs_*, multisite_diskcache_* and
// multisite_fleet_*), which the in-memory server above never shows.
func TestMetricsDurableGolden(t *testing.T) {
	checkGolden(t, "metrics_durable.golden", []byte(normalizeMetrics(string(durableMetrics(t)))))
}

// durableMetrics scrapes a NewWithData server with a data dir and a
// one-peer fleet after one optimize and one finished optimize job.
func durableMetrics(t *testing.T) []byte {
	t.Helper()
	_, ts := newDurableServer(t, t.TempDir(), Options{FleetPeers: []string{"127.0.0.1:1"}, FleetSelf: "127.0.0.1:1"})
	post(t, ts, "/v1/optimize", optimizeD695)
	waitJob(t, ts, submitJob(t, ts, "optimize", optimizeD695).ID, jobs.StateDone)
	resp, data := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	return data
}

// TestMetricsPrometheusShape checks the text-format invariants the
// goldens' normalization cannot, on the in-memory server and on the
// durable fleet peer: every non-comment line is "name[labels] value",
// every counter family ends in _total, every family has HELP and TYPE,
// and histogram bucket counts are cumulative with a trailing +Inf equal
// to _count.
func TestMetricsPrometheusShape(t *testing.T) {
	t.Run("in-memory", func(t *testing.T) {
		_, ts := newTestServer(t, Options{})
		post(t, ts, "/v1/optimize", optimizeD695)
		_, data := get(t, ts, "/metrics")
		checkPrometheusShape(t, data)
	})
	t.Run("durable", func(t *testing.T) { checkPrometheusShape(t, durableMetrics(t)) })
}

func checkPrometheusShape(t *testing.T, data []byte) {
	t.Helper()
	typed := map[string]string{} // family -> type
	helped := map[string]bool{}
	var family string
	samples := map[string]float64{}
	var order []string
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if v, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(v, " ")
			if strings.TrimSpace(help) == "" {
				t.Errorf("empty help text for %s", name)
			}
			helped[name] = true
			continue
		}
		if v, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(v, " ")
			typed[name] = typ
			family = name
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if base != family {
			t.Errorf("sample %q outside its family block (current family %s)", line, family)
		}
		fields := strings.Fields(line)
		var v float64
		if n, err := parseFloat(fields[len(fields)-1]); err != nil {
			t.Errorf("unparsable value in %q", line)
		} else {
			v = n
		}
		key := strings.Join(fields[:len(fields)-1], " ")
		samples[key] = v
		order = append(order, key)
	}
	for name, typ := range typed {
		if !helped[name] {
			t.Errorf("%s has TYPE but no HELP", name)
		}
		switch typ {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("counter %s lacks the _total suffix", name)
			}
		case "gauge", "histogram":
		default:
			t.Errorf("%s has unexpected type %q", name, typ)
		}
	}

	// Histogram invariants per endpoint: cumulative buckets, +Inf == count.
	for _, ep := range []string{"optimize", "metrics"} {
		prev := -1.0
		var inf float64
		for _, key := range order {
			if !strings.HasPrefix(key, "multisite_request_duration_seconds_bucket{endpoint=\""+ep+"\"") {
				continue
			}
			v := samples[key]
			if v < prev {
				t.Errorf("bucket counts not cumulative at %s", key)
			}
			prev = v
			inf = v
		}
		count := samples[`multisite_request_duration_seconds_count{endpoint="`+ep+`"}`]
		if inf != count {
			t.Errorf("%s: +Inf bucket %v != count %v", ep, inf, count)
		}
	}

	// The optimize histogram actually observed the request.
	if samples[`multisite_request_duration_seconds_count{endpoint="optimize"}`] < 1 {
		t.Error("optimize histogram recorded no observations")
	}
	if samples[`multisite_request_duration_seconds_sum{endpoint="optimize"}`] <= 0 {
		t.Error("optimize histogram sum is zero")
	}
}

func parseFloat(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}
