package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"multisite/internal/diskcache"
)

// journalSeedLines are the record payloads two finished jobs leave in
// the journal, as TestJournalCorruptLineSkipped writes them.
var journalSeedLines = []string{
	`{"seq":1,"op":"enqueue","id":"j0000000001","spec":{"type":"optimize","request":"eyJhIjoxfQ=="},"at":1792236250}`,
	`{"seq":2,"op":"state","id":"j0000000001","state":"running","attempt":1,"at":1792236250}`,
	`{"seq":3,"op":"complete","id":"j0000000001","rows":1,"total":1,"cas":"6b52831960907090aa633ffaa33aa9370f552dc28077b35051c4ca06442f4aa5","at":1792236250}`,
	`{"seq":4,"op":"enqueue","id":"j0000000004","spec":{"type":"optimize","request":"eyJiIjoyfQ=="},"at":1792236250}`,
	`{"seq":5,"op":"state","id":"j0000000004","state":"running","attempt":1,"at":1792236250}`,
	`{"seq":6,"op":"complete","id":"j0000000004","rows":1,"total":1,"cas":"af846fcce3ed88986cf6dd174ab9779a7e03d04be80004f9b033aacb1dd12757","at":1792236250}`,
}

// FuzzJournalReplay opens a Manager over a journal built from the input.
// Each newline-terminated line of the input is a record payload, framed
// here with its correct crc32c so replay decodes it instead of the
// checksum rejecting it; whatever follows the last newline is appended
// raw, like a torn append. Open must not panic or hang: it either fails
// or becomes ready, and every job it lists has a valid state.
func FuzzJournalReplay(f *testing.F) {
	// TestJournalTornTailDropped: one finished job, then a torn append.
	f.Add([]byte(strings.Join(journalSeedLines[:3], "\n") + "\n" + `deadbeef {"seq":999,"op":"enq`))
	// TestJournalCorruptLineSkipped: two finished jobs with one byte of
	// the second record flipped.
	lines := append([]string(nil), journalSeedLines...)
	mid := []byte(lines[1])
	mid[len(mid)/2] ^= 0x20
	lines[1] = string(mid)
	f.Add([]byte(strings.Join(lines, "\n") + "\n"))
	// TestParentJournalReplays: the record shapes an older manager wrote.
	var parent []byte
	for _, rec := range parentJournal() {
		data, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		parent = append(append(parent, data...), '\n')
	}
	f.Add(parent)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		jobsDir := filepath.Join(dir, "jobs")
		if err := os.MkdirAll(jobsDir, 0o777); err != nil {
			t.Fatal(err)
		}
		payloads := bytes.Split(data, []byte("\n"))
		var journal []byte
		for _, p := range payloads[:len(payloads)-1] {
			journal = fmt.Appendf(journal, "%08x ", crc32.Checksum(p, crcTable))
			journal = append(journal, p...)
			journal = append(journal, '\n')
		}
		journal = append(journal, payloads[len(payloads)-1]...)
		if err := os.WriteFile(filepath.Join(jobsDir, journalName), journal, 0o666); err != nil {
			t.Fatal(err)
		}
		cas, err := diskcache.Open(diskcache.Options{Dir: filepath.Join(dir, "cas")})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Open(Options{
			Dir: jobsDir, CAS: cas, Backoff: time.Millisecond,
			Runner: func(context.Context, Spec, Sink) error { return nil },
		})
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		defer m.Close(ctx)
		select {
		case <-m.Ready():
		case <-ctx.Done():
			t.Fatal("manager never became ready over the replayed journal")
		}
		for _, snap := range m.List() {
			switch snap.State {
			case StatePending, StateRunning, StateDone, StateFailed:
			default:
				t.Errorf("job %q listed in invalid state %q", snap.ID, snap.State)
			}
		}
	})
}
