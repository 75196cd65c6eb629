// Package wafer models the geometry the paper's throughput model
// abstracts away: a circular wafer of rectangular dies probed by a
// multi-site probe card stepping across the wafer. The paper notes that
// "the circular shape of the wafer brings some losses in multi-site
// testing at the periphery" and ignores them; this package quantifies
// those losses, which the experiment harness reports as an extension
// (ablation abl-3 in DESIGN.md).
package wafer

import "math"

// Layout describes the wafer and the probe-card site arrangement.
type Layout struct {
	// WaferDiameterMM is the usable wafer diameter (e.g. 300).
	WaferDiameterMM float64
	// DieWidthMM and DieHeightMM are the die dimensions including
	// scribe lanes.
	DieWidthMM, DieHeightMM float64
	// SitesX and SitesY arrange the probe sites in a rectangle; the
	// site count n = SitesX · SitesY.
	SitesX, SitesY int
}

// Sites returns the probe-card site count n.
func (l Layout) Sites() int { return l.SitesX * l.SitesY }

// dieOnWafer reports whether the die at grid position (i, j) lies fully
// inside the wafer circle. The grid is centered on the wafer.
func (l Layout) dieOnWafer(i, j int) bool {
	r := l.WaferDiameterMM / 2
	// Corner furthest from the center decides.
	x0 := float64(i) * l.DieWidthMM
	y0 := float64(j) * l.DieHeightMM
	x1 := x0 + l.DieWidthMM
	y1 := y0 + l.DieHeightMM
	worstX := math.Max(math.Abs(x0), math.Abs(x1))
	worstY := math.Max(math.Abs(y0), math.Abs(y1))
	return worstX*worstX+worstY*worstY <= r*r
}

// gridRange returns the half-open index range covering the wafer.
func (l Layout) gridRange() (iMin, iMax, jMin, jMax int) {
	r := l.WaferDiameterMM / 2
	iMax = int(math.Ceil(r/l.DieWidthMM)) + 1
	jMax = int(math.Ceil(r/l.DieHeightMM)) + 1
	return -iMax, iMax, -jMax, jMax
}

// DieCount returns the number of whole dies on the wafer.
func (l Layout) DieCount() int {
	iMin, iMax, jMin, jMax := l.gridRange()
	n := 0
	for i := iMin; i < iMax; i++ {
		for j := jMin; j < jMax; j++ {
			if l.dieOnWafer(i, j) {
				n++
			}
		}
	}
	return n
}

// Plan is the stepping plan of a probe card across one wafer.
type Plan struct {
	// Touchdowns is the number of probe touchdowns needed.
	Touchdowns int
	// DiesProbed counts die-site contacts that land on real dies.
	DiesProbed int
	// WastedSites counts site positions that fell outside the wafer
	// (the periphery loss the paper ignores).
	WastedSites int
}

// Step computes the stepping plan: the probe card visits every block of
// SitesX×SitesY grid positions that contains at least one on-wafer die.
func (l Layout) Step() Plan {
	iMin, iMax, jMin, jMax := l.gridRange()
	var p Plan
	for i := iMin; i < iMax; i += l.SitesX {
		for j := jMin; j < jMax; j += l.SitesY {
			dies := 0
			for di := 0; di < l.SitesX; di++ {
				for dj := 0; dj < l.SitesY; dj++ {
					if l.dieOnWafer(i+di, j+dj) {
						dies++
					}
				}
			}
			if dies == 0 {
				continue
			}
			p.Touchdowns++
			p.DiesProbed += dies
			p.WastedSites += l.Sites() - dies
		}
	}
	return p
}

// Utilization returns the fraction of site contacts that landed on dies:
// 1 means the paper's no-periphery-loss idealization holds exactly.
func (p Plan) Utilization() float64 {
	total := p.DiesProbed + p.WastedSites
	if total == 0 {
		return 0
	}
	return float64(p.DiesProbed) / float64(total)
}

// WaferTestHours returns the time to test one wafer given the
// per-touchdown time in seconds.
func (l Layout) WaferTestHours(touchdownSec float64) float64 {
	return float64(l.Step().Touchdowns) * touchdownSec / 3600
}
