package benchdata

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"multisite/internal/pareto"
	"multisite/internal/soc"
)

// GenSpec parameterizes the deterministic synthetic SOC generator.
// The generator produces a mix of a few dominant scan-tested logic cores
// and a tail of smaller ones, plus optional embedded memories tested
// through their functional ports — the structure of the industrial Philips
// chips the paper evaluates.
type GenSpec struct {
	// Name of the generated SOC.
	Name string
	// Seed makes the generation deterministic.
	Seed int64
	// LogicCores and MemoryCores are the module counts.
	LogicCores, MemoryCores int
	// TargetArea is the total minimum test area (TAM-wire·cycles) the
	// SOC is calibrated to; it controls the minimal ATE channel count
	// at a given vector memory depth.
	TargetArea int64
	// Spread is the log-normal sigma of the core size distribution;
	// larger values concentrate the area in fewer dominant cores.
	// Zero means the default of 1.2.
	Spread float64
	// MaxChainLen caps the scan chain length of logic cores; zero
	// means 400.
	MaxChainLen int
}

// Generate builds the synthetic SOC. Generation is reproducible: the same
// spec always yields the same chip. After drawing the module mix, pattern
// counts are rescaled in one calibration pass so that the SOC's total
// minimum test area matches TargetArea within rounding.
func Generate(spec GenSpec) *soc.SOC {
	if spec.Spread == 0 {
		spec.Spread = 1.2
	}
	if spec.MaxChainLen == 0 {
		spec.MaxChainLen = 400
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	s := &soc.SOC{Name: spec.Name}
	s.Modules = append(s.Modules, soc.Module{ID: 0, Name: spec.Name + "-top", Level: 0})

	// Memories first: functional-port tested, no internal scan.
	id := 1
	for i := 0; i < spec.MemoryCores; i++ {
		io := 24 + rng.Intn(72)          // address+data+control width
		patterns := 400 + rng.Intn(4200) // march-style algorithmic test
		s.Modules = append(s.Modules, soc.Module{
			ID: id, Name: fmt.Sprintf("mem%03d", i), Level: 1,
			Inputs: io, Outputs: io * 2 / 3, Bidirs: 0,
			Patterns: patterns, IsMemory: true,
		})
		id++
	}

	// Logic cores with log-normally distributed sizes.
	weights := make([]float64, spec.LogicCores)
	var wsum float64
	for i := range weights {
		weights[i] = math.Exp(rng.NormFloat64() * spec.Spread)
		wsum += weights[i]
	}
	for i := 0; i < spec.LogicCores; i++ {
		frac := weights[i] / wsum
		// Nominal area share before calibration; the absolute value
		// only matters relative to the other cores.
		area := frac * float64(spec.TargetArea)
		// Patterns grow with core size but sub-linearly, as in
		// practice (larger cores have more but not proportionally
		// more patterns).
		patterns := int(math.Sqrt(area)/2.5) + 16 + rng.Intn(32)
		// Minimum area ≈ patterns · (scan cells + max(in, out) cells),
		// so size the core's cell budget from its area share.
		cells := int(area/float64(patterns)) + 1
		inputs := 32 + rng.Intn(200)
		if inputs > cells/4+8 {
			inputs = cells/4 + 8
		}
		outputs := inputs * (60 + rng.Intn(35)) / 100
		scanCells := cells - inputs
		if scanCells < 0 {
			scanCells = 0
		}
		chains := 0
		if scanCells > 0 {
			chains = scanCells/spec.MaxChainLen + 1
			// Scan stitching balances cores into several chains
			// even when small, as the ITC'02 cores are: a single
			// long chain would make the core unsplittable over a
			// TAM and is avoided in practice.
			if chains < 4 {
				chains = 4
			}
			if chains > scanCells {
				chains = scanCells
			}
			if maxC := 64; chains > maxC {
				chains = maxC
			}
		}
		m := soc.Module{
			ID: id, Name: fmt.Sprintf("logic%02d", i), Level: 1,
			Inputs: inputs, Outputs: outputs,
			Patterns: patterns,
		}
		if chains > 0 {
			m.ScanChains = unevenChains(rng, scanCells, chains)
		}
		s.Modules = append(s.Modules, m)
		id++
	}

	// Two calibration passes: the second corrects the per-module
	// rounding error of the first.
	calibrate(s, spec.TargetArea)
	calibrate(s, spec.TargetArea)
	return s
}

// unevenChains splits scan cells over n chains with mild (±15%) imbalance,
// as synthesized scan stitching produces in practice.
func unevenChains(rng *rand.Rand, total, n int) []soc.ScanChain {
	if n == 1 {
		return soc.ChainsOfLengths(total)
	}
	shares := make([]float64, n)
	var sum float64
	for i := range shares {
		shares[i] = 0.85 + rng.Float64()*0.3
		sum += shares[i]
	}
	out := make([]soc.ScanChain, n)
	left := total
	for i := 0; i < n-1; i++ {
		l := int(float64(total) * shares[i] / sum)
		if l < 1 {
			l = 1
		}
		if l > left-(n-1-i) {
			l = left - (n - 1 - i)
		}
		out[i] = soc.ScanChain{Length: l}
		left -= l
	}
	out[n-1] = soc.ScanChain{Length: left}
	return out
}

// calibrate rescales the pattern counts so that the SOC's total minimum
// test area matches the target. Area is linear in the pattern count, so a
// single proportional pass converges up to per-module rounding.
func calibrate(s *soc.SOC, target int64) {
	if target <= 0 {
		return
	}
	actual := pareto.TotalMinArea(s)
	if actual == 0 {
		return
	}
	scale := float64(target) / float64(actual)
	for i := range s.Modules {
		m := &s.Modules[i]
		if m.Patterns == 0 {
			continue
		}
		p := int(math.Round(float64(m.Patterns) * scale))
		if p < 1 {
			p = 1
		}
		m.Patterns = p
	}
}

// Mi is 2^20, the paper's "M" unit of vector memory depth.
const Mi = int64(1) << 20

// Ki is 2^10, the paper's "K" unit of vector memory depth.
const Ki = int64(1) << 10

// P22810 returns the synthetic stand-in for the Philips chip p22810:
// 28 cores, total minimum test area ≈ 7.0 M wire·cycles (reproducing the
// published T(W=16) ≈ 0.44 M cycles scale).
func P22810() *soc.SOC {
	return Generate(GenSpec{
		Name: "p22810", Seed: 22810,
		LogicCores: 24, MemoryCores: 4,
		TargetArea:  7 * Mi,
		MaxChainLen: 128,
	})
}

// P34392 returns the synthetic stand-in for p34392: 19 cores with a
// dominant bottleneck core, total minimum area ≈ 15.5 M wire·cycles.
func P34392() *soc.SOC {
	return Generate(GenSpec{
		Name: "p34392", Seed: 34392,
		LogicCores: 17, MemoryCores: 2,
		TargetArea:  15*Mi + Mi/2,
		Spread:      1.6, // concentrates area in a few large cores
		MaxChainLen: 128,
	})
}

// P93791 returns the synthetic stand-in for p93791, the largest ITC'02
// benchmark: 32 cores, total minimum area ≈ 27 M wire·cycles (reproducing
// the published T(W=16) ≈ 1.7 M cycles scale).
func P93791() *soc.SOC {
	return Generate(GenSpec{
		Name: "p93791", Seed: 93791,
		LogicCores: 26, MemoryCores: 6,
		TargetArea:  27 * Mi,
		MaxChainLen: 128,
	})
}

// PNX8550 returns the synthetic stand-in for the Philips Nexperia PNX8550
// "monster chip": exactly 62 logic and 212 memory modules as disclosed in
// the paper, calibrated so that at N=512 channels and D=7 M vectors the
// designed architecture uses k ≈ 60 channels and fills ≈ 7 M cycles
// (tm ≈ 1.4 s at 5 MHz, nmax = 8 without stimuli broadcast), matching the
// paper's Figures 5–7 operating point.
func PNX8550() *soc.SOC {
	return Generate(GenSpec{
		Name: "pnx8550", Seed: 8550,
		LogicCores: 62, MemoryCores: 212,
		TargetArea:  205 * Mi,
		Spread:      1.0,
		MaxChainLen: 120,
	})
}

// The generated chips are deterministic but expensive to calibrate, so the
// exported accessors memoize a template and hand out clones. Callers that
// will not mutate the SOC should prefer the Shared variants, which also
// share the wrapper-design cache.

var shared struct {
	once sync.Once
	m    map[string]*soc.SOC
}

func sharedSOCs() map[string]*soc.SOC {
	shared.once.Do(func() {
		shared.m = map[string]*soc.SOC{
			"d695":    D695(),
			"p22810":  P22810(),
			"p34392":  P34392(),
			"p93791":  P93791(),
			"pnx8550": PNX8550(),
		}
		for name, s := range familySOCs() {
			shared.m[name] = s
		}
	})
	return shared.m
}

// Shared returns the memoized benchmark SOC with the given name, or nil.
// The returned SOC must not be mutated; repeated architecture designs on
// it reuse the wrapper-fit cache.
func Shared(name string) *soc.SOC {
	return sharedSOCs()[name]
}

// Names lists the available benchmark names in a fixed order: the paper's
// Table 1 chips and PNX8550 first, then the extended family.
func Names() []string {
	return append([]string{"d695", "p22810", "p34392", "p93791", "pnx8550"},
		FamilyNames()...)
}
