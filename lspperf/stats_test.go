package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 9, 2}, 2},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// rule the spread of ten runs is judged by.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // extrapolated, as Python does
		{[]float64{7}, 7, 7, 7},
		{[]float64{6, 6, 6, 6, 6, 6, 6, 6, 7, 7}, 6, 6, 6.25},
		{[]float64{0.5, 1.5, 2, 4, 8}, 1, 2, 6},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
	if got := spread([]float64{0, 0, 0}); !math.IsInf(got, 1) {
		t.Errorf("spread around a zero median = %v, want +Inf", got)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	v, beyond := nearestRank(seq(100), 90)
	if v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	v, beyond = nearestRank(seq(10), 90)
	if v != 9 || beyond != 1 {
		t.Errorf("p90 of 1..10 = %v with %d beyond, want 9 with 1", v, beyond)
	}
	v, beyond = nearestRank(seq(7), 50)
	if v != 4 || beyond != 3 {
		t.Errorf("p50 of 1..7 = %v with %d beyond, want 4 with 3", v, beyond)
	}
}

// The highest percentile reported is the highest one that still leaves at
// least ten samples beyond it.
func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		p, want float64
	}{
		{100, 90, 90},  // p95 would leave 5
		{199, 90, 180}, // p95 leaves 9 of 199
		{200, 95, 190}, // p95 leaves exactly 10
		{1000, 99, 990},
		{10000, 99.9, 9990},
		{40, 75, 30},
		{20, 50, 10},
	} {
		p, v, err := tailPercentile(seq(c.n), 10)
		if err != nil {
			t.Errorf("n=%d: %v", c.n, err)
			continue
		}
		if p != c.p || v != c.want {
			t.Errorf("n=%d: p%v = %v, want p%v = %v", c.n, p, v, c.p, c.want)
		}
		if _, beyond := nearestRank(seq(c.n), p); beyond < 10 {
			t.Errorf("n=%d: p%v leaves %d beyond", c.n, p, beyond)
		}
	}
	if _, _, err := tailPercentile(seq(19), 10); err == nil {
		t.Error("19 samples: want an error, no percentile leaves ten beyond")
	}
	if _, _, err := tailPercentile(nil, 10); err == nil {
		t.Error("no samples: want an error")
	}
}
