package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a tail read off fewer samples is one unlucky
// scheduling hiccup, not a property of the system.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100)
// and whether at least minBeyond samples lie strictly beyond its rank. xs
// need not be sorted; it is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

// summary is the median and quartiles of a sample, computed like Python's
// statistics.quantiles(xs, n=4) (the exclusive method), so the benchmark's
// own spreads read the same as the ones computed over its runs.
type summary struct {
	N           int
	Q1, Med, Q3 float64
}

// summarize returns the quartile summary of xs. One sample gives all three
// quartiles equal to it; an empty sample gives the zero summary.
func summarize(xs []float64) summary {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return summary{}
	case 1:
		return summary{N: 1, Q1: s[0], Med: s[0], Q3: s[0]}
	}
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{N: n, Q1: q(1), Med: median(s), Q3: q(3)}
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Med == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Med
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
