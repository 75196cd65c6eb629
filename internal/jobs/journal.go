package jobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"multisite/internal/diskcache"
)

// The journal is the job layer's write-ahead log: an append-only JSONL
// file where every accepted job and every state transition is recorded
// before it is acknowledged. Each line is framed as
//
//	<crc32c of the JSON, 8 lowercase hex> <record JSON>\n
//
// so torn tails (a crash mid-append) and corrupted lines (bit rot) are
// detected per record: a line that fails its checksum is dropped and
// counted, and an unterminated final line is dropped silently — it is
// the normal artifact of dying mid-write. Rotation rewrites the live
// records to a tmp file, fsyncs, and renames over the old journal, so
// a crash during rotation leaves either the old complete journal or
// the new complete journal, never a mix.
//
// Record sequence numbers are assigned at append time and survive
// rotation (rotation preserves them and the counter continues past the
// maximum), which is what lets job IDs — derived from the enqueue
// record's sequence number — stay unique across any number of
// restarts and rotations.

// journalName is the journal file's name under the jobs directory.
const journalName = "journal.jsonl"

// record is one journal line.
type record struct {
	Seq int64 `json:"seq"`
	// Op is enqueue, state, complete or fail; replay ignores any other
	// (an older journal's progress records).
	Op string `json:"op"`
	ID string `json:"id"`

	// Spec rides on enqueue records only.
	Spec *Spec `json:"spec,omitempty"`
	// State rides on state records; Attempt on state, complete and fail
	// records.
	State   State `json:"state,omitempty"`
	Attempt int   `json:"attempt,omitempty"`
	// Rows rides on complete and fail records; Total when known.
	Rows  int `json:"rows,omitempty"`
	Total int `json:"total,omitempty"`
	// CAS is the content hash of the finished result blob (complete).
	CAS string `json:"cas,omitempty"`
	// Error rides on fail records.
	Error string `json:"error,omitempty"`
	// At is the record's unix time in seconds (diagnostics only;
	// recovery never consults it).
	At int64 `json:"at,omitempty"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameRecord renders one journal line: checksum, space, JSON, newline.
func frameRecord(rec *record) ([]byte, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, 8+1+len(data)+1)
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(data, crcTable))
	line = append(line, data...)
	line = append(line, '\n')
	return line, nil
}

// parseLine verifies one framed line and decodes its record.
func parseLine(line string) (*record, error) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("jobs: malformed journal line frame")
	}
	var want uint32
	if _, err := fmt.Sscanf(line[:8], "%x", &want); err != nil {
		return nil, fmt.Errorf("jobs: bad journal checksum field: %w", err)
	}
	payload := line[9:]
	if got := crc32.Checksum([]byte(payload), crcTable); got != want {
		return nil, fmt.Errorf("jobs: journal checksum mismatch (%08x != %08x)", got, want)
	}
	rec := &record{}
	if err := json.Unmarshal([]byte(payload), rec); err != nil {
		return nil, fmt.Errorf("jobs: journal record JSON: %w", err)
	}
	return rec, nil
}

// journal is the open write-ahead log.
type journal struct {
	mu     sync.Mutex
	dir    string
	path   string
	f      *os.File
	seq    int64  // last assigned sequence number
	count  int    // records in the file (for rotation policy)
	prefix string // stamped onto new job IDs (fleet shard identity)
	inject func(op diskcache.Op) diskcache.Fault
}

// openJournal reads (or creates) the journal, returning the surviving
// records in file order and the count of corrupt lines dropped. A torn
// final line is not counted as corrupt.
func openJournal(dir, idPrefix string, inject func(op diskcache.Op) diskcache.Fault) (*journal, []*record, int, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, nil, 0, fmt.Errorf("jobs: %w", err)
	}
	path := filepath.Join(dir, journalName)
	var recs []*record
	corrupt := 0
	var maxSeq int64
	count := 0
	if data, err := os.ReadFile(path); err == nil {
		lines := strings.Split(string(data), "\n")
		// The element after the final newline is "" (or the torn tail).
		last := len(lines) - 1
		for i, line := range lines {
			if i == last {
				// A torn tail is the expected artifact of a crash
				// mid-append: the record was never acknowledged.
				break
			}
			if line == "" {
				continue
			}
			rec, err := parseLine(line)
			if err != nil {
				corrupt++
				continue
			}
			recs = append(recs, rec)
			count++
			if rec.Seq > maxSeq {
				maxSeq = rec.Seq
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, 0, fmt.Errorf("jobs: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("jobs: %w", err)
	}
	return &journal{dir: dir, path: path, f: f, seq: maxSeq, count: count, prefix: idPrefix, inject: inject}, recs, corrupt, nil
}

func (j *journal) fault(op diskcache.Op) diskcache.Fault {
	if j.inject == nil {
		return diskcache.FaultNone
	}
	return j.inject(op)
}

// append assigns the next sequence number to rec.Seq, writes its framed
// line, and — when sync is set — fsyncs before returning, which is what
// makes an acknowledged record durable.
func (j *journal) append(rec *record, sync bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	rec.Seq = j.seq
	rec.At = time.Now().Unix()
	if rec.Op == "enqueue" && rec.ID == "" {
		// The job ID is the enqueue record's sequence number (plus the
		// fleet shard prefix, when configured): one journaled fact names
		// the job forever, and rotation preserves sequence numbers, so
		// IDs stay unique across restarts. Replayed records carry their
		// stored IDs, so a prefix change never renames accepted jobs.
		rec.ID = j.prefix + jobID(rec.Seq)
	}
	line, err := frameRecord(rec)
	if err != nil {
		return err
	}
	if j.fault(diskcache.OpWrite) == diskcache.FaultShortWrite {
		// The injected crash shape: a prefix of the line reaches the
		// disk and the process dies before anyone learns otherwise.
		// Recovery must drop the torn tail.
		line = line[:len(line)/2]
		sync = false
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("jobs: journal append: %w", err)
	}
	j.count++
	if sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("jobs: journal fsync: %w", err)
		}
	}
	return nil
}

// rotate atomically replaces the journal with exactly recs (their
// sequence numbers preserved), dropping everything else. The sequence
// counter continues from its high-water mark.
func (j *journal) rotate(recs []*record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	tmpPath := j.path + ".tmp"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("jobs: journal rotate: %w", err)
	}
	w := bufio.NewWriter(tmp)
	for _, rec := range recs {
		line, err := frameRecord(rec)
		if err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return err
		}
		if _, err := w.Write(line); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("jobs: journal rotate: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("jobs: journal rotate: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("jobs: journal rotate: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("jobs: journal rotate: %w", err)
	}
	if j.fault(diskcache.OpRename) == diskcache.FaultTornRename {
		// The torn-rotation crash shape: the new name is visible but
		// truncated. Recovery sees a journal whose tail is garbage —
		// per-line checksums bound the damage to the torn record.
		data, _ := os.ReadFile(tmpPath)
		if len(data) > 3 {
			data = data[:len(data)-3]
		}
		if err := os.WriteFile(j.path, data, 0o666); err != nil {
			return fmt.Errorf("jobs: journal rotate: %w", err)
		}
		os.Remove(tmpPath)
	} else if err := os.Rename(tmpPath, j.path); err != nil {
		return fmt.Errorf("jobs: journal rotate: %w", err)
	}
	// Reopen the append handle on the new file; the old descriptor
	// points at the unlinked inode.
	old := j.f
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return fmt.Errorf("jobs: journal rotate: %w", err)
	}
	old.Close()
	j.f = f
	j.count = len(recs)
	if d, err := os.Open(j.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// closeAbrupt closes the handle without the final fsync (crash-drill
// test hook).
func (j *journal) closeAbrupt() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.f.Close()
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
