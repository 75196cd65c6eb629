package ieee1500

import (
	"testing"

	"multisite/internal/ate"
	"multisite/internal/benchdata"
	"multisite/internal/tam"
)

func arch(t *testing.T) *tam.Architecture {
	t.Helper()
	a, err := tam.DesignStep1(benchdata.Shared("d695"),
		ate.ATE{Channels: 256, Depth: 64 * 1024, ClockHz: 5e6})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestForArchitectureCoversTestableModules(t *testing.T) {
	a := arch(t)
	cc := ForArchitecture(a)
	if len(cc.Wrappers) != 10 {
		t.Fatalf("wrappers = %d, want 10 (d695 cores)", len(cc.Wrappers))
	}
	seen := map[int]bool{}
	for _, w := range cc.Wrappers {
		if seen[w.Module] {
			t.Errorf("module %d wrapped twice", w.Module)
		}
		seen[w.Module] = true
		if w.BoundaryCells <= 0 {
			t.Errorf("module %d: %d boundary cells", w.Module, w.BoundaryCells)
		}
		if w.Chains < 1 {
			t.Errorf("module %d: %d chains", w.Module, w.Chains)
		}
	}
}

func TestWIRChainBits(t *testing.T) {
	cc := ForArchitecture(arch(t))
	if got, want := cc.WIRChainBits(), WIRLength*len(cc.Wrappers); got != want {
		t.Errorf("WIRChainBits = %d, want %d", got, want)
	}
	if got, want := cc.ProgramCycles(), int64(cc.WIRChainBits()+4); got != want {
		t.Errorf("ProgramCycles = %d, want %d", got, want)
	}
}

func TestOverheadIsNegligible(t *testing.T) {
	// The paper ignores wrapper-control overhead; verify the
	// assumption: far below 1% of the test length for d695.
	a := arch(t)
	f := OverheadFraction(a)
	if f <= 0 {
		t.Fatalf("overhead fraction = %g", f)
	}
	if f > 0.01 {
		t.Errorf("control overhead %.3f%% is not negligible", 100*f)
	}
	over := ScheduleOverhead(a)
	cc := ForArchitecture(a)
	if want := int64(10) * cc.ProgramCycles(); over != want {
		t.Errorf("ScheduleOverhead = %d, want %d", over, want)
	}
}

func TestInstructionStrings(t *testing.T) {
	if WSBypass.String() != "WS_BYPASS" || WSIntestScan.String() != "WS_INTEST_SCAN" {
		t.Error("instruction names wrong")
	}
	if Instruction(200).String() == "" {
		t.Error("unknown instruction should render")
	}
}
