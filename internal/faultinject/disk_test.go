package faultinject_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"multisite/internal/diskcache"
	"multisite/internal/faultinject"
)

func TestParseDiskPlan(t *testing.T) {
	p, err := faultinject.ParseDiskPlan("shortwrite, pass ,eio,torn")
	if err != nil {
		t.Fatal(err)
	}
	want := []diskcache.Fault{diskcache.FaultShortWrite, diskcache.FaultNone, diskcache.FaultReadErr, diskcache.FaultTornRename}
	for i, f := range want {
		if got := p.Inject(diskcache.OpWrite); got != f {
			t.Errorf("step %d = %v, want %v", i, got, f)
		}
	}
	// Non-repeating plans pass forever past the end.
	for i := 0; i < 3; i++ {
		if got := p.Inject(diskcache.OpWrite); got != diskcache.FaultNone {
			t.Errorf("past-end draw = %v, want pass", got)
		}
	}
	if got := p.String(); got != "shortwrite,pass,eio,torn" {
		t.Errorf("String() = %q", got)
	}
}

func TestParseDiskPlanRepeat(t *testing.T) {
	p, err := faultinject.ParseDiskPlan("eio,pass,repeat")
	if err != nil {
		t.Fatal(err)
	}
	want := []diskcache.Fault{diskcache.FaultReadErr, diskcache.FaultNone, diskcache.FaultReadErr, diskcache.FaultNone, diskcache.FaultReadErr}
	for i, f := range want {
		if got := p.Inject(diskcache.OpRead); got != f {
			t.Errorf("step %d = %v, want %v", i, got, f)
		}
	}
	if got := p.String(); got != "eio,pass,repeat" {
		t.Errorf("String() = %q", got)
	}
}

func TestParseDiskPlanErrors(t *testing.T) {
	for _, s := range []string{"", "bogus", "repeat", "repeat,eio", "shortwrite,,torn"} {
		if _, err := faultinject.ParseDiskPlan(s); err == nil {
			t.Errorf("ParseDiskPlan(%q) succeeded, want error", s)
		}
	}
}

func TestNilDiskPlanPasses(t *testing.T) {
	var p *faultinject.DiskPlan
	if got := p.Inject(diskcache.OpRead); got != diskcache.FaultNone {
		t.Errorf("nil plan Inject() = %v, want pass", got)
	}
	if got := p.String(); got != "pass" {
		t.Errorf("nil plan String() = %q, want pass", got)
	}
}

// TestDiskPlanConcurrentDraws: concurrent operations each consume their
// own step, so a one-step plan faults exactly one of them and a cycling
// plan hands out its steps in exact proportion.
func TestDiskPlanConcurrentDraws(t *testing.T) {
	const workers, draws = 8, 100
	for _, tc := range []struct {
		plan string
		want int64
	}{
		{"eio", 1},
		{"eio,pass,pass,pass,repeat", workers * draws / 4},
	} {
		p, err := faultinject.ParseDiskPlan(tc.plan)
		if err != nil {
			t.Fatal(err)
		}
		var eio atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < draws; i++ {
					if p.Inject(diskcache.OpRead) == diskcache.FaultReadErr {
						eio.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if got := eio.Load(); got != tc.want {
			t.Errorf("%q: %d eio steps in %d concurrent draws, want %d", tc.plan, got, workers*draws, tc.want)
		}
	}
}

// TestDiskPlanDrivesDiskCache runs parsed plans through a real disk
// cache as its fault hook: a short write is quarantined at read time and
// never served, and a read error is a miss that condemns nothing.
func TestDiskPlanDrivesDiskCache(t *testing.T) {
	open := func(t *testing.T, dir, plan string) *diskcache.Cache {
		t.Helper()
		opts := diskcache.Options{Dir: dir}
		if plan != "" {
			p, err := faultinject.ParseDiskPlan(plan)
			if err != nil {
				t.Fatal(err)
			}
			opts.Inject = p.Inject
		}
		c, err := diskcache.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	const key = "00112233445566778899aabbccddeeff"

	t.Run("shortwrite", func(t *testing.T) {
		c := open(t, t.TempDir(), "shortwrite")
		// The short write reports success: the fault is only
		// discoverable at verification time.
		if err := c.Put(key, []byte("this payload will be torn")); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(key); ok {
			t.Fatal("torn entry served")
		}
		if st := c.Stats(); st.Quarantined != 1 || st.ReadErrors != 0 {
			t.Errorf("stats after a short write = %+v; want 1 quarantined, 0 read errors", st)
		}
		// The plan is spent: the next Put commits cleanly.
		if err := c.Put(key, []byte("healthy")); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get(key); !ok || string(got) != "healthy" {
			t.Fatalf("post-fault Get = %q, %v", got, ok)
		}
	})

	t.Run("eio", func(t *testing.T) {
		// The entry is committed without faults, so the plan's one step
		// falls on the first read.
		dir := t.TempDir()
		if err := open(t, dir, "").Put(key, []byte("intact")); err != nil {
			t.Fatal(err)
		}
		c := open(t, dir, "eio")
		if _, ok := c.Get(key); ok {
			t.Fatal("injected read error still served")
		}
		if st := c.Stats(); st.ReadErrors != 1 || st.Quarantined != 0 {
			t.Errorf("stats after EIO = %+v; want 1 read error, 0 quarantined", st)
		}
		// A transient read failure must not condemn the entry.
		if got, ok := c.Get(key); !ok || string(got) != "intact" {
			t.Fatalf("Get after transient EIO = %q, %v", got, ok)
		}
	})
}
