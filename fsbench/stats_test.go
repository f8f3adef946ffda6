package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100) // 1..100
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1}} {
		if got, _ := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of an empty sample reported ok")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// p99 of n samples has n - ceil(0.99n) samples beyond it: 10 first at n = 1000.
	if _, ok := percentile(seq(999), 99); ok {
		t.Error("p99 of 999 samples (9 beyond) reported ok")
	}
	if v, ok := percentile(seq(1000), 99); !ok || v != 990 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(seq(100), 90); !ok {
		t.Error("p90 of 100 samples (10 beyond) not ok")
	}
	if _, ok := percentile(seq(99), 90); ok {
		t.Error("p90 of 99 samples (9 beyond) reported ok")
	}
}

func TestSummaryMatchesPythonQuantiles(t *testing.T) {
	// Values from statistics.quantiles(xs, n=4) and statistics.median(xs).
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 10, 15, 20},
	} {
		s := summarize(c.xs)
		if s.N != len(c.xs) || !near(s.Q1, c.q1) || !near(s.Med, c.med) || !near(s.Q3, c.q3) {
			t.Errorf("summarize(%v) = %+v, want q1 %v med %v q3 %v", c.xs, s, c.q1, c.med, c.q3)
		}
	}
	if s := summarize([]float64{4}); s.Q1 != 4 || s.Med != 4 || s.Q3 != 4 {
		t.Errorf("summarize of one sample = %+v", s)
	}
	if s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s.spread(), 5.5/5.5) {
		t.Errorf("spread = %v, want 1", s.spread())
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
