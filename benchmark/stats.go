package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it. It
// never interpolates, so every reported latency is one a request really
// saw. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4) (its default "exclusive"
// method), so spreads computed here match spreads computed from the same
// values there. Fewer than two samples give both quartiles equal to the
// lone sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// latencyWindow is the number of consecutive requests a latency window
// holds at least: enough for a p95 with 25 samples above it.
const latencyWindow = 500

// windowed is the median, over consecutive windows of at least
// latencyWindow samples (taken in send order), of each window's p-th
// percentile; with fewer samples it is the plain percentile. A slow spell
// of the machine then moves only the windows it covers, not the whole
// sample's tail.
func windowed(xs []float64, p float64) float64 {
	k := max(1, len(xs)/latencyWindow)
	ps := make([]float64, k)
	for j := range ps {
		lo, hi := chunk(len(xs), j, k)
		ps[j] = percentile(xs[lo:hi], p)
	}
	return median(ps)
}

// classP50 is the p50 of latencies (in send order) whose requests come in
// latency classes, classes[i] naming the class of xs[i]. With one class it
// is the windowed p50. With several it is the geometric mean of each
// class's windowed p50, which byClass also returns: where two classes of
// equal share have modes far apart, the plain median falls in the gap
// between them and jumps from one mode to the other between runs, while
// each class's own median stays put.
func classP50(xs []float64, classes []string) (p50 float64, byClass map[string]float64) {
	groups := map[string][]float64{}
	for i, x := range xs {
		c := ""
		if i < len(classes) {
			c = classes[i]
		}
		groups[c] = append(groups[c], x)
	}
	if len(groups) <= 1 {
		return windowed(xs, 50), nil
	}
	names := make([]string, 0, len(groups))
	for c := range groups {
		names = append(names, c)
	}
	sort.Strings(names)
	byClass = map[string]float64{}
	logs := 0.0
	for _, c := range names {
		byClass[c] = windowed(groups[c], 50)
		logs += math.Log(byClass[c])
	}
	return math.Exp(logs / float64(len(names))), byClass
}

// windowTarget is the number of completions a rate window holds on
// average.
const windowTarget = 25

// rate is a phase's steady completion rate: the median, over consecutive
// windows from start, of the weight (ops or rows) completed per second in
// each window. The CPU of a shared machine slows down in spells; a
// whole-phase average moves with every spell it contains, while the
// median window moves only when spells fill most of the phase. Windows
// hold windowTarget completions on average and the last, partial window
// is left out; a phase too short for two windows reports its average.
func rate(start time.Time, ends []time.Time, weights []float64) float64 {
	var last time.Duration
	total := 0.0
	for i, e := range ends {
		last = max(last, e.Sub(start))
		total += weights[i]
	}
	if len(ends) == 0 || last <= 0 {
		return 0
	}
	w := max(last*windowTarget/time.Duration(len(ends)), time.Millisecond)
	k := int(last / w)
	if k < 2 {
		return total / last.Seconds()
	}
	sums := make([]float64, k)
	for i, e := range ends {
		if j := int(e.Sub(start) / w); j < k {
			sums[j] += weights[i]
		}
	}
	for j := range sums {
		sums[j] /= w.Seconds()
	}
	return median(sums)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
