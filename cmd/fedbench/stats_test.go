package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNearestRankAndGuard(t *testing.T) {
	// 200 samples 1..200: p95 is the 190th, with exactly 10 beyond it.
	v, ok := percentile(seq(200), 0.95)
	if v != 190 || !ok {
		t.Errorf("p95 of 1..200 = %v supported=%v, want 190 true", v, ok)
	}
	// One sample fewer leaves 9 beyond: reported, but flagged.
	v, ok = percentile(seq(199), 0.95)
	if v != 190 || ok {
		t.Errorf("p95 of 1..199 = %v supported=%v, want 190 false", v, ok)
	}
	if v, ok := percentile(seq(1000), 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v supported=%v, want 990 true", v, ok)
	}
	if v, ok := percentile(seq(3), 1); v != 3 || ok {
		t.Errorf("p100 of 1..3 = %v supported=%v, want 3 false", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of nothing is supported")
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(5), 1.5, 3, 4.5},
		{[]float64{10, 40, 20, 30}, 12.5, 25, 37.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
}
