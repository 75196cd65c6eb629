// Package diskcache is the crash-safe, content-addressed disk tier of
// the serving layer's cache stack: a directory of checksummed blobs the
// in-memory resultcache spills to, so computed designs survive process
// restarts and one warm data directory can boot a cold server straight
// into byte hits.
//
// The layout is a two-level fan-out keyed on the caller's hex keys
// (`<dir>/ca/ab/cd/<key>` for a key starting "abcd"), plus `tmp/` for
// in-flight writes and `quarantine/` for entries that failed
// verification. Every entry is framed: a magic, the payload length, and
// a SHA-256 over the payload, then the payload itself. Writers build
// the entry in tmp/, fsync it, and rename it into place — a crash
// leaves either the old entry, the complete new entry, or stray tmp
// garbage that the next Open sweeps; never a half-visible entry served
// to a reader.
//
// Readers verify the frame on every Get: magic, length, checksum. An
// entry that fails any check — torn write, bit rot, truncation — is
// moved to quarantine/ (preserved for diagnosis, named by key and
// timestamp) and reported as a miss, so the caller recomputes; a
// corrupt entry is never served. Read errors (EIO shapes) are counted
// and reported as misses without quarantining: the file may be fine,
// the read was not.
//
// The cache is safe for concurrent use across goroutines and across
// processes sharing a directory (atomic rename is the commit point; a
// concurrent Put of the same key is idempotent — equal content under a
// content-derived key, last rename wins either way).
//
// Options.Inject hooks a deterministic fault schedule
// (faultinject.DiskPlan via the serving layer) under each physical
// operation, which is how the torn-write/quarantine/recompute paths are
// tested and chaos-drilled.
package diskcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Op names a physical disk operation for the fault-injection hook.
type Op int

const (
	OpRead Op = iota
	OpWrite
	OpRename
)

// Fault is one injected misbehavior; the zero value is none.
type Fault int

const (
	// FaultNone performs the operation untouched.
	FaultNone Fault = iota
	// FaultShortWrite truncates the written bytes partway; the write
	// still reports success (the crash-between-write-and-flush shape).
	FaultShortWrite
	// FaultReadErr fails the read with an injected I/O error.
	FaultReadErr
	// FaultTornRename lands a truncated destination file.
	FaultTornRename
)

// ErrInjectedRead is the error injected reads fail with.
var ErrInjectedRead = errors.New("diskcache: injected read error")

// magic starts every entry file; bumping it invalidates old layouts.
var magic = [4]byte{'M', 'S', 'C', '1'}

// headerSize is magic + 8-byte big-endian payload length + SHA-256.
const headerSize = 4 + 8 + sha256.Size

// Options tunes a Cache.
type Options struct {
	// Dir is the cache root; created if missing. Required.
	Dir string
	// Inject, when set, draws one fault per physical operation — the
	// chaos hook (nil means no faults).
	Inject func(op Op) Fault
	// Logf receives operational log lines (quarantines, sweep results);
	// nil means silent.
	Logf func(format string, args ...any)
}

// Cache is an open disk cache. Create with Open.
type Cache struct {
	dir    string
	inject func(op Op) Fault
	logf   func(format string, args ...any)

	hits        atomic.Int64 // verified entries served
	misses      atomic.Int64 // absent entries
	puts        atomic.Int64 // entries committed
	quarantined atomic.Int64 // corrupt entries moved aside
	readErrors  atomic.Int64 // reads that failed (not corruption)
	writeErrors atomic.Int64 // puts that failed to commit
	entries     atomic.Int64 // committed entries currently on disk
}

// Open prepares the directory layout, sweeps stray tmp files from
// previous crashes, and counts the surviving entries.
func Open(opts Options) (*Cache, error) {
	if opts.Dir == "" {
		return nil, errors.New("diskcache: Options.Dir is required")
	}
	c := &Cache{dir: opts.Dir, inject: opts.Inject, logf: opts.Logf}
	for _, sub := range []string{"ca", "tmp", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(opts.Dir, sub), 0o777); err != nil {
			return nil, fmt.Errorf("diskcache: %w", err)
		}
	}
	// Stray tmp files are uncommitted writes from a crashed process:
	// they were never visible, so deleting them is always safe.
	swept := 0
	tmpDir := filepath.Join(opts.Dir, "tmp")
	if names, err := os.ReadDir(tmpDir); err == nil {
		for _, de := range names {
			if os.Remove(filepath.Join(tmpDir, de.Name())) == nil {
				swept++
			}
		}
	}
	n := 0
	filepath.WalkDir(filepath.Join(opts.Dir, "ca"), func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d != nil && !d.IsDir() {
			n++
		}
		return nil
	})
	c.entries.Store(int64(n))
	if swept > 0 && c.logf != nil {
		c.logf("diskcache: swept %d uncommitted tmp files", swept)
	}
	return c, nil
}

// pathFor maps a key to its entry path. Keys are expected to be the
// serving layer's lowercase-hex content hashes; anything else is
// re-hashed so arbitrary strings stay path-safe.
func (c *Cache) pathFor(key string) string {
	key = canonicalKey(key)
	return filepath.Join(c.dir, "ca", key[:2], key[2:4], key)
}

func canonicalKey(key string) string {
	if len(key) >= 8 && isLowerHex(key) {
		return key
	}
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (c *Cache) fault(op Op) Fault {
	if c.inject == nil {
		return FaultNone
	}
	return c.inject(op)
}

// Get returns the verified payload for key, or (nil, false) when the
// entry is absent, unreadable, or corrupt. Corrupt entries are
// quarantined before reporting the miss — a bad entry is never served
// and never consulted twice.
func (c *Cache) Get(key string) ([]byte, bool) {
	path := c.pathFor(key)
	if c.fault(OpRead) == FaultReadErr {
		c.readErrors.Add(1)
		if c.logf != nil {
			c.logf("diskcache: read %s: %v", filepath.Base(path), ErrInjectedRead)
		}
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			c.misses.Add(1)
		} else {
			c.readErrors.Add(1)
			if c.logf != nil {
				c.logf("diskcache: read %s: %v", filepath.Base(path), err)
			}
		}
		return nil, false
	}
	payload, err := decodeEntry(data)
	if err != nil {
		c.quarantine(path, err)
		return nil, false
	}
	c.hits.Add(1)
	return payload, true
}

// Has reports whether a verified entry exists for key, quarantining a
// corrupt one exactly as Get does, without returning the payload — the
// recovery scan uses it to decide reattach vs recompute.
func (c *Cache) Has(key string) bool {
	_, ok := c.Get(key)
	return ok
}

// Put commits payload under key: entry framed with its checksum,
// written to tmp/, fsynced, renamed into place. A failed Put leaves no
// visible entry; the error is also counted, so spilling is best-effort
// for callers that treat the disk tier as optional.
func (c *Cache) Put(key string, payload []byte) error {
	err := c.put(key, payload)
	if err != nil {
		c.writeErrors.Add(1)
		if c.logf != nil {
			c.logf("diskcache: put %s: %v", canonicalKey(key), err)
		}
	}
	return err
}

func (c *Cache) put(key string, payload []byte) error {
	path := c.pathFor(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	buf := encodeEntry(payload)
	if c.fault(OpWrite) == FaultShortWrite {
		// The injected crash shape: the write "succeeds" but only a
		// prefix reaches the disk. Commit the truncated bytes so the
		// verification path, not the write path, catches it.
		buf = buf[:headerSize+len(payload)/2]
	}
	tmp, err := os.CreateTemp(filepath.Join(c.dir, "tmp"), "put-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	_, existed := statSize(path)
	if c.fault(OpRename) == FaultTornRename {
		// The torn-rename crash shape: the new name is visible but its
		// data blocks never made it. Land a truncated destination.
		if err := os.WriteFile(path, buf[:headerSize/2], 0o666); err != nil {
			return err
		}
	} else if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	syncDir(filepath.Dir(path))
	c.puts.Add(1)
	if !existed {
		c.entries.Add(1)
	}
	return nil
}

func statSize(path string) (int64, bool) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, false
	}
	return fi.Size(), true
}

// syncDir fsyncs a directory so a rename survives power loss; errors
// are ignored (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// quarantine moves a corrupt entry aside, preserving it for diagnosis.
func (c *Cache) quarantine(path string, cause error) {
	dst := filepath.Join(c.dir, "quarantine",
		fmt.Sprintf("%s.%d", filepath.Base(path), time.Now().UnixNano()))
	if err := os.Rename(path, dst); err != nil {
		// Best effort: even if the move fails, make sure the entry
		// cannot be consulted again.
		os.Remove(path)
	}
	c.quarantined.Add(1)
	c.entries.Add(-1)
	if c.logf != nil {
		c.logf("diskcache: quarantined %s: %v", filepath.Base(path), cause)
	}
}

// encodeEntry frames a payload: magic | len | sha256(payload) | payload.
func encodeEntry(payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	copy(buf[0:4], magic[:])
	binary.BigEndian.PutUint64(buf[4:12], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(buf[12:12+sha256.Size], sum[:])
	copy(buf[headerSize:], payload)
	return buf
}

// decodeEntry verifies a frame and returns its payload.
func decodeEntry(data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("truncated header (%d bytes)", len(data))
	}
	if !bytes.Equal(data[0:4], magic[:]) {
		return nil, fmt.Errorf("bad magic %q", data[0:4])
	}
	n := binary.BigEndian.Uint64(data[4:12])
	if uint64(len(data)-headerSize) != n {
		return nil, fmt.Errorf("payload is %d bytes, header says %d", len(data)-headerSize, n)
	}
	payload := data[headerSize:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[12:12+sha256.Size]) {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Hits counts verified entries served; Misses counts absent keys.
	Hits, Misses int64
	// Puts counts committed writes.
	Puts int64
	// Quarantined counts corrupt entries moved to quarantine/ — each
	// one was detected before it could be served.
	Quarantined int64
	// ReadErrors counts failed reads (EIO shapes; the entry was not
	// condemned). WriteErrors counts puts that failed to commit.
	ReadErrors, WriteErrors int64
	// Entries approximates the committed entries currently on disk.
	Entries int64
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Puts:        c.puts.Load(),
		Quarantined: c.quarantined.Load(),
		ReadErrors:  c.readErrors.Load(),
		WriteErrors: c.writeErrors.Load(),
		Entries:     c.entries.Load(),
	}
}
