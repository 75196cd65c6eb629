package wafer

import (
	"math"
	"testing"
)

func layout(x, y int) Layout {
	return Layout{WaferDiameterMM: 300, DieWidthMM: 10, DieHeightMM: 10, SitesX: x, SitesY: y}
}

func TestDieCountApproximatesArea(t *testing.T) {
	l := layout(1, 1)
	n := l.DieCount()
	// Whole dies on a 300 mm circle with 10x10 mm dies: close to but
	// below the area ratio π·150²/100 ≈ 707.
	ideal := math.Pi * 150 * 150 / 100
	if n <= 0 || float64(n) > ideal {
		t.Errorf("DieCount = %d vs ideal %.0f", n, ideal)
	}
	if float64(n) < 0.85*ideal {
		t.Errorf("DieCount = %d suspiciously low vs ideal %.0f", n, ideal)
	}
}

func TestSingleSiteFullUtilization(t *testing.T) {
	p := layout(1, 1).Step()
	if p.WastedSites != 0 {
		t.Errorf("1x1 card wasted %d sites", p.WastedSites)
	}
	if got := p.Utilization(); got != 1 {
		t.Errorf("1x1 utilization = %g, want 1", got)
	}
	if p.DiesProbed != layout(1, 1).DieCount() {
		t.Errorf("probed %d, dies %d", p.DiesProbed, layout(1, 1).DieCount())
	}
}

func TestEveryDieProbedExactlyOnce(t *testing.T) {
	for _, g := range [][2]int{{2, 2}, {4, 1}, {8, 2}, {16, 1}} {
		l := layout(g[0], g[1])
		p := l.Step()
		if p.DiesProbed != l.DieCount() {
			t.Errorf("%dx%d: probed %d dies, wafer has %d",
				g[0], g[1], p.DiesProbed, l.DieCount())
		}
	}
}

func TestUtilizationDropsWithLargerCards(t *testing.T) {
	prev := 1.01
	for _, g := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {8, 4}} {
		u := layout(g[0], g[1]).Step().Utilization()
		if u > prev {
			t.Errorf("%dx%d utilization %g above smaller card %g", g[0], g[1], u, prev)
		}
		if u <= 0 || u > 1 {
			t.Errorf("%dx%d utilization %g outside (0,1]", g[0], g[1], u)
		}
		prev = u
	}
}

func TestTouchdownsShrinkWithSites(t *testing.T) {
	t1 := layout(1, 1).Step().Touchdowns
	t4 := layout(2, 2).Step().Touchdowns
	if t4 >= t1 {
		t.Errorf("4-site card needs %d touchdowns, 1-site needs %d", t4, t1)
	}
	// At 100% utilization 4 sites would need exactly t1/4; periphery
	// losses allow somewhat more.
	if t4 < t1/4 {
		t.Errorf("4-site touchdowns %d below theoretical floor %d", t4, t1/4)
	}
}

func TestWaferTestHours(t *testing.T) {
	l := layout(2, 2)
	tds := l.Step().Touchdowns
	if got, want := l.WaferTestHours(3600), float64(tds); math.Abs(got-want) > 1e-9 {
		t.Errorf("WaferTestHours = %g, want %g", got, want)
	}
}
