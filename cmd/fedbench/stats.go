package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported as supported: with fewer, the value is one or two outliers.
const minBeyond = 10

// median returns the middle of the values (the mean of the two middle ones
// for an even count) and 0 for none. It does not reorder its argument.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sorted(values)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of the
// values and whether at least minBeyond samples lie beyond it.
func percentile(values []float64, q float64) (v float64, supported bool) {
	if len(values) == 0 {
		return 0, false
	}
	s := sorted(values)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method), so a
// spread computed here is the spread the acceptance check computes. Fewer
// than two values have no quartiles; all three are then the single value.
func quartiles(values []float64) (q1, q2, q3 float64) {
	if len(values) == 0 {
		return 0, 0, 0
	}
	s := sorted(values)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median (0 when
// the median is 0).
func spread(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	m := median(values)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
