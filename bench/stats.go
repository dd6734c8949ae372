package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of an ascending
// slice by linear interpolation between closest ranks; 0 for no data.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

// median sorts a copy of v and returns its 50th percentile.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// geomean is the geometric mean of the positive values in v; 0 when
// there are none. Class medians are averaged with it so that a 10 %
// change to a 0.3 ms program weighs as much as one to a 30 ms program.
func geomean(v []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range v {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// medianOf times f reps times and returns the median duration in
// seconds: the layer probes' one way of taking a number.
func medianOf(reps int, f func() float64) float64 {
	v := make([]float64, reps)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}
