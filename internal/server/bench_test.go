package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkSweepRepeat answers the same 48-row p22810 sweep (6 depths ×
// 4 contact yields × retest both) from a warm server over HTTP, again and
// again, and reports rows/s. After the first pass every row re-scores a
// design the memo holds: this is what any cache of rows would have to
// beat.
func BenchmarkSweepRepeat(b *testing.B) { benchSweepRepeat(b, mustNew(b, Options{})) }

// BenchmarkSweepRepeatDisk answers the same sweep from a warm disk-backed
// server (NewWithData). The first pass spills every row to the disk tier;
// after it every row is a hit on the view its row entry keeps, so a
// repeated row neither reads the disk nor re-scores.
func BenchmarkSweepRepeatDisk(b *testing.B) {
	s := mustNew(b, Options{DataDir: b.TempDir()})
	defer s.Close(context.Background())
	benchSweepRepeat(b, s)
}

func benchSweepRepeat(b *testing.B, s *Server) {
	const (
		rows = 6 * 4 * 2
		body = `{"soc":"p22810","channels":256,"depths":"1M,2M,3M,4M,6M,8M",` +
			`"contact_yields":[1,0.999,0.99,0.98],"retest_both":true}`
	)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sweep := func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK ||
			bytes.Count(data, []byte("\n")) != rows || bytes.Contains(data, []byte(`"error"`)) {
			b.Fatalf("sweep: status %d, %v: %s", resp.StatusCode, err, data)
		}
	}
	sweep() // designs the six depths
	b.ReportAllocs()
	for b.Loop() {
		sweep()
	}
	b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
}
