package wrapper

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"multisite/internal/soc"
)

func designerSOC() *soc.SOC {
	return &soc.SOC{Name: "dsn", Modules: []soc.Module{
		{ID: 0, Inputs: 4},
		{ID: 1, Inputs: 32, Outputs: 32, Patterns: 12},
		{ID: 2, Inputs: 35, Outputs: 2, Patterns: 75, ScanChains: soc.ChainsOfLengths(32)},
		{ID: 3, Inputs: 36, Outputs: 39, Patterns: 105, ScanChains: soc.ChainsOfLengths(54, 53, 52, 52)},
	}}
}

func TestDesignerMatchesFit(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	for mi := range s.Modules {
		for w := 1; w <= 20; w++ {
			want := Fit(&s.Modules[mi], w).Time
			if got := d.Time(mi, w); got != want {
				t.Errorf("module %d width %d: designer %d, Fit %d", mi, w, got, want)
			}
		}
	}
}

func TestDesignerMinWidth(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	for _, mi := range s.TestableModules() {
		for _, depth := range []int64{100, 1000, 5000, 100000} {
			w, ok := d.MinWidth(mi, depth, 64)
			// Reference: linear scan.
			wantW, wantOK := 0, false
			for x := 1; x <= 64; x++ {
				if d.Time(mi, x) <= depth {
					wantW, wantOK = x, true
					break
				}
			}
			if ok != wantOK || w != wantW {
				t.Errorf("module %d depth %d: MinWidth = (%d,%v), want (%d,%v)",
					mi, depth, w, ok, wantW, wantOK)
			}
		}
	}
}

func TestDesignerMinWidthInfeasible(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	if _, ok := d.MinWidth(3, 1, 64); ok {
		t.Error("depth 1 should be infeasible for a scanned module")
	}
	if _, ok := d.MinWidth(3, 1<<40, 0); ok {
		t.Error("maxW=0 should be infeasible")
	}
}

// TestDesignerMinTime: the last entry of a module's time table, its
// smallest achievable test time, equals the standalone Fit at the
// module's maximum useful width.
func TestDesignerMinTime(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	for _, mi := range s.TestableModules() {
		tt := d.TimeTable(mi)
		m := &s.Modules[mi]
		if got, want := tt[len(tt)-1], Fit(m, MaxUsefulWidth(m)).Time; got != want {
			t.Errorf("module %d: min time designer %d, direct %d", mi, got, want)
		}
	}
}

func TestDesignerFitSharesMemoizedDesigns(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	d1 := d.Fit(3, 8)
	d2 := d.Fit(3, 8)
	if d1.Time != d2.Time || d1.Chains != d2.Chains {
		t.Errorf("repeated Fit differs: %+v vs %+v", d1, d2)
	}
	if &d1.ScanIn[0] != &d2.ScanIn[0] {
		t.Error("repeated Fit built the design twice")
	}
	if n := testing.AllocsPerRun(100, func() { d.Fit(3, 8) }); n != 0 {
		t.Errorf("memoized Fit allocates %v times per call", n)
	}
	if err := d1.Validate(&s.Modules[3]); err != nil {
		t.Errorf("memoized design invalid: %v", err)
	}
}

func TestDesignerWidthCap(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	// Requests beyond the table cap must still answer (times saturate).
	if got := d.Time(1, MaxTableWidth+100); got <= 0 {
		t.Errorf("time at huge width = %d", got)
	}
}

// TestDesignerConcurrent queries one fresh designer from eight goroutines
// released together, so each module table's slot is built under
// contention and read lock-free while other slots are still being
// built. CI repeats it under -race.
func TestDesignerConcurrent(t *testing.T) {
	s := designerSOC()
	d := For(s)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			<-start
			if For(s) != d {
				errs <- "For returned another designer under concurrency"
				return
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				mi := 1 + rng.Intn(3)
				w := 1 + rng.Intn(16)
				want := Fit(&s.Modules[mi], w)
				if got := d.Time(mi, w); got != want.Time {
					errs <- "time mismatch under concurrency"
					return
				}
				if got := d.Fit(mi, w); !reflect.DeepEqual(got, want) {
					errs <- "design mismatch under concurrency"
					return
				}
			}
		}(int64(g))
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestForCachesPerSOC(t *testing.T) {
	s := designerSOC()
	if For(s) != For(s) {
		t.Error("For returned different designers for the same SOC")
	}
	other := designerSOC()
	if For(s) == For(other) {
		t.Error("For shared a designer across distinct SOC values")
	}
}

func cachedDesigners() int {
	n := 0
	designers.Range(func(_, _ any) bool { n++; return true })
	return n
}

func TestForReleasesUnreachableSOCs(t *testing.T) {
	before := cachedDesigners()
	for i := 0; i < 100; i++ {
		For(designerSOC()).Time(3, 4)
	}
	// Cleanups run on their own goroutine after the collection that
	// finds the SOCs unreachable, so poll.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := cachedDesigners()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("designer cache holds %d entries after dropping 100 SOCs, %d before", n, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDesignerTimeTableMatchesFit(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	for mi := range s.Modules {
		tt := d.TimeTable(mi)
		if len(tt) != d.MaxWidthTable(mi) {
			t.Errorf("module %d: table length %d != MaxWidthTable %d", mi, len(tt), d.MaxWidthTable(mi))
		}
		for w := 1; w <= len(tt); w++ {
			if want := Fit(&s.Modules[mi], w).Time; tt[w-1] != want {
				t.Errorf("module %d width %d: table %d, Fit %d", mi, w, tt[w-1], want)
			}
		}
	}
}

func TestDesignerTimeTableNonIncreasing(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	for mi := range s.Modules {
		tt := d.TimeTable(mi)
		for w := 1; w < len(tt); w++ {
			if tt[w] > tt[w-1] {
				t.Errorf("module %d: time increases from width %d (%d) to %d (%d)",
					mi, w, tt[w-1], w+1, tt[w])
			}
		}
	}
}

func TestDesignerTimeSaturatesBeyondTable(t *testing.T) {
	s := designerSOC()
	d := NewDesigner(s)
	for mi := range s.Modules {
		tt := d.TimeTable(mi)
		if got, want := d.Time(mi, len(tt)+37), tt[len(tt)-1]; got != want {
			t.Errorf("module %d: time beyond table = %d, want saturated %d", mi, got, want)
		}
	}
}
