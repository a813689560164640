package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule
// the spread of repeated runs is judged by. It needs at least one value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// nearestRank is the nearest-rank p-th percentile of xs (0 < p <= 100)
// together with the number of samples strictly beyond its rank. It needs at
// least one value.
func nearestRank(xs []float64, p float64) (value float64, beyond int) {
	s := sorted(xs)
	// The small tolerance keeps p*n/100 from rounding up past an exact rank.
	k := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > len(s) {
		k = len(s)
	}
	return s[k-1], len(s) - k
}

// tailPercentiles are the percentiles tailPercentile chooses from, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest of tailPercentiles that leaves at
// least minBeyond samples beyond its nearest rank, with its value. It fails
// when even the median leaves fewer.
func tailPercentile(xs []float64, minBeyond int) (p, value float64, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("no samples")
	}
	for _, p := range tailPercentiles {
		v, beyond := nearestRank(xs, p)
		if beyond >= minBeyond {
			return p, v, nil
		}
	}
	return 0, 0, fmt.Errorf("%d samples leave fewer than %d beyond every percentile", len(xs), minBeyond)
}
