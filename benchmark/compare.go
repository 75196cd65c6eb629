package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (workload, metric) pairing.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict compares the runs of a parent (a) and a change (b) on one
// metric.
type verdict struct {
	MedA, Q1A, Q3A float64
	MedB, Q1B, Q3B float64
	// Won is the share of pairs (run i of each side) the change won; ties
	// count for neither side.
	Won    float64
	Status string
}

// minPairs is the fewest pairs a gain may be claimed on.
const minPairs = 10

// classify applies the pairing rule: a gain needs at least minPairs
// pairs, the change winning nine tenths of them, and medians further
// apart than the parent's own quartile spread; a regression is a median
// worse by more than the metric's bound; where the parent's spread
// exceeds the bound the pairing is unresolved, unless every change run
// beats every parent run.
func classify(a, b []float64, m specMetric) verdict {
	v := verdict{MedA: median(a), MedB: median(b)}
	v.Q1A, v.Q3A = quartiles(a)
	v.Q1B, v.Q3B = quartiles(b)
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := range pairs {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if pairs > 0 {
		v.Won = float64(wins) / float64(pairs)
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	scale := math.Abs(v.MedA)
	if scale == 0 {
		scale = 1
	}
	worse := (v.MedB - v.MedA) / scale
	if m.Better == "higher" {
		worse = -worse
	}
	spread := (v.Q3A - v.Q1A) / scale
	switch {
	case pairs >= minPairs && worse < 0 && v.Won >= 0.9 && math.Abs(v.MedB-v.MedA) > v.Q3A-v.Q1A:
		v.Status = improved
	case allBetter:
		v.Status = unchanged
	case spread > m.Bound:
		v.Status = unresolved
	case worse > m.Bound:
		v.Status = regressed
	default:
		v.Status = unchanged
	}
	return v
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// validity judges a workload's runs before any metric is compared. A run
// is invalid when its open-loop generator fell behind schedule. The
// generator shares the CPU with the server, so a change that makes the
// server heavier makes its own runs invalid; fewer valid runs than the
// parent's therefore leaves the workload unresolved, never unchanged.
// It returns "" when the valid runs can be compared as they are.
func validity(validA, validB int) string {
	if validA == 0 || validB < validA {
		return unresolved
	}
	return ""
}

// compareFiles compares a parent's result file (pathA) with a change's
// (pathB), one row per workload and end-to-end metric, plus fail_frac.
// Metrics are compared over the valid runs only, and a workload whose
// change lost valid runs is reported unresolved. It reports whether any
// workload regressed or was left unresolved that way.
func compareFiles(spec *benchSpec, pathA, pathB string, w io.Writer) (bool, error) {
	fa, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	bad := false
	fmt.Fprintf(w, "%-13s %-18s %-30s %-30s %5s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	for _, wl := range workloads {
		allA, allB := runsOf(fa, wl), runsOf(fb, wl)
		if len(allA) == 0 && len(allB) == 0 {
			continue
		}
		ra, rb := valid(allA), valid(allB)
		if status := validity(len(ra), len(rb)); status != "" {
			fmt.Fprintf(w, "%-13s %-18s %-30s %-30s %5s  %s\n", wl, "valid runs",
				fmt.Sprintf("%d of %d", len(ra), len(allA)), fmt.Sprintf("%d of %d", len(rb), len(allB)), "", status)
			bad = true
		}
		if len(ra) > 0 && len(rb) > 0 {
			for _, m := range spec.EndToEnd {
				v := classify(values(ra, m.Name), values(rb, m.Name), m)
				fmt.Fprintf(w, "%-13s %-18s %-30s %-30s %4.0f%%  %s\n", wl, m.Name,
					fmt.Sprintf("%.4g [%.4g, %.4g] %s", v.MedA, v.Q1A, v.Q3A, m.Unit),
					fmt.Sprintf("%.4g [%.4g, %.4g] %s", v.MedB, v.Q1B, v.Q3B, m.Unit),
					100*v.Won, v.Status)
				bad = bad || v.Status == regressed
			}
		}
		// Failures count on every run, valid or not.
		failA, failB := failFrac(allA), failFrac(allB)
		status := unchanged
		switch {
		case failB > failA:
			status = regressed
		case failB < failA:
			status = improved
		}
		fmt.Fprintf(w, "%-13s %-18s %-30s %-30s %5s  %s\n", wl, "fail_frac",
			fmt.Sprintf("%.4g", failA), fmt.Sprintf("%.4g", failB), "", status)
		bad = bad || status == regressed
	}
	return bad, nil
}

func runsOf(f *resultFile, workload string) []*record {
	var out []*record
	for _, r := range f.Runs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func valid(recs []*record) []*record {
	var out []*record
	for _, r := range recs {
		if r.Valid {
			out = append(out, r)
		}
	}
	return out
}

func values(recs []*record, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func failFrac(recs []*record) float64 {
	var failed, attempted int
	for _, r := range recs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}
