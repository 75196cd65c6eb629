package diskcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func keyOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func openT(t *testing.T, opts Options) *Cache {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	c, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPutGetRoundtrip(t *testing.T) {
	c := openT(t, Options{})
	key := keyOf("a")
	payload := []byte(`{"best":{"sites":4}}`)
	if _, ok := c.Get(key); ok {
		t.Fatal("Get before Put reported a hit")
	}
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v; want payload, true", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, Options{Dir: dir})
	key := keyOf("persist")
	if err := c.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	c2 := openT(t, Options{Dir: dir})
	if got, ok := c2.Get(key); !ok || string(got) != "payload" {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
	if st := c2.Stats(); st.Entries != 1 {
		t.Errorf("reopened Entries = %d, want 1", st.Entries)
	}
}

// TestBitFlipQuarantined is the acceptance contract in miniature: one
// flipped payload byte must be detected, the entry quarantined, and the
// read reported as a miss — never a bad payload served.
func TestBitFlipQuarantined(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, Options{Dir: dir})
	key := keyOf("flip")
	if err := c.Put(key, []byte("precious result bytes")); err != nil {
		t.Fatal(err)
	}
	path := c.pathFor(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(key); ok {
		t.Fatalf("corrupt entry served: %q", got)
	}
	if st := c.Stats(); st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
	// The entry is preserved in quarantine/ and gone from the CA tree.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt entry still present at %s", path)
	}
	qs, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(qs) != 1 {
		t.Errorf("quarantine dir: %v, %d entries; want 1", err, len(qs))
	}
	// A recompute (fresh Put) restores service on the same key.
	if err := c.Put(key, []byte("precious result bytes")); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(key); !ok || string(got) != "precious result bytes" {
		t.Fatalf("post-recompute Get = %q, %v", got, ok)
	}
}

func TestTruncationQuarantined(t *testing.T) {
	c := openT(t, Options{})
	key := keyOf("trunc")
	if err := c.Put(key, []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	path := c.pathFor(key)
	if err := os.Truncate(path, headerSize+4); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("truncated entry served")
	}
	if st := c.Stats(); st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
}

func TestInjectedShortWrite(t *testing.T) {
	first := true
	c := openT(t, Options{Inject: func(op Op) Fault {
		if op == OpWrite && first {
			first = false
			return FaultShortWrite
		}
		return FaultNone
	}})
	key := keyOf("short")
	// The short write reports success — that is the point: the fault is
	// only discoverable at verification time.
	if err := c.Put(key, []byte("this payload will be torn")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("torn entry served")
	}
	if st := c.Stats(); st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
	// The fault is spent: the next Put commits cleanly.
	if err := c.Put(key, []byte("healthy")); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(key); !ok || string(got) != "healthy" {
		t.Fatalf("post-fault Get = %q, %v", got, ok)
	}
}

func TestInjectedReadErrorIsMissNotQuarantine(t *testing.T) {
	fail := true
	c := openT(t, Options{Inject: func(op Op) Fault {
		if op == OpRead && fail {
			return FaultReadErr
		}
		return FaultNone
	}})
	key := keyOf("eio")
	if err := c.Put(key, []byte("intact")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("injected read error still served")
	}
	st := c.Stats()
	if st.ReadErrors != 1 || st.Quarantined != 0 {
		t.Errorf("stats after EIO = %+v; want 1 read error, 0 quarantined", st)
	}
	// A transient read failure must not condemn the entry.
	fail = false
	if got, ok := c.Get(key); !ok || string(got) != "intact" {
		t.Fatalf("Get after transient EIO = %q, %v", got, ok)
	}
}

func TestInjectedTornRename(t *testing.T) {
	first := true
	c := openT(t, Options{Inject: func(op Op) Fault {
		if op == OpRename && first {
			first = false
			return FaultTornRename
		}
		return FaultNone
	}})
	key := keyOf("torn")
	if err := c.Put(key, []byte("will be torn at rename")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("torn-rename entry served")
	}
	if st := c.Stats(); st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
	if err := c.Put(key, []byte("recovered")); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(key); !ok || string(got) != "recovered" {
		t.Fatalf("post-recovery Get = %q, %v", got, ok)
	}
}

func TestOpenSweepsTmp(t *testing.T) {
	dir := t.TempDir()
	openT(t, Options{Dir: dir})
	stray := filepath.Join(dir, "tmp", "put-stray")
	if err := os.WriteFile(stray, []byte("uncommitted"), 0o666); err != nil {
		t.Fatal(err)
	}
	openT(t, Options{Dir: dir})
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Error("stray tmp file survived Open")
	}
}

func TestNonHexKeysAreSafe(t *testing.T) {
	c := openT(t, Options{})
	key := "../../etc/passwd" // must not escape the cache root
	if err := c.Put(key, []byte("safe")); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(key); !ok || string(got) != "safe" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	path := c.pathFor(key)
	rel, err := filepath.Rel(c.dir, path)
	if err != nil || filepath.IsAbs(rel) || rel == ".." || len(rel) > 0 && rel[0] == '.' {
		t.Errorf("non-hex key mapped outside the root: %s", path)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	c := openT(t, Options{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				key := keyOf(fmt.Sprint(j % 10))
				want := fmt.Sprintf("payload-%d", j%10)
				if err := c.Put(key, []byte(want)); err != nil {
					t.Error(err)
					return
				}
				if got, ok := c.Get(key); ok && string(got) != want {
					t.Errorf("Get(%d) = %q, want %q", j%10, got, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if st := c.Stats(); st.Quarantined != 0 || st.WriteErrors != 0 {
		t.Errorf("stats = %+v; want no quarantines or write errors", st)
	}
}
