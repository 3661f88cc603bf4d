package main

import (
	"math"
	"sort"
)

// Quantile is one order statistic of a sample set, with the number of
// samples it was taken from. A percentile is only reported as valid when
// at least ten samples lie beyond it (n*(1-q) >= 10), so p90 needs 100
// samples and the median 20.
type Quantile struct {
	Q     float64
	Value float64
	N     int
}

// Valid reports whether enough samples lie beyond the quantile to trust it.
func (q Quantile) Valid() bool {
	return q.N > 0 && q.N-rank(q.Q, q.N) >= 10
}

// rank is the 1-based nearest-rank position of the q-quantile among n
// sorted samples. The small tolerance keeps q*n that is integral in exact
// arithmetic from rounding up a rank.
func rank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts in
// place): the smallest value with at least q*n samples at or below it.
// An empty set yields a zero value with N = 0.
func quantile(xs []float64, q float64) Quantile {
	if len(xs) == 0 {
		return Quantile{Q: q}
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	return Quantile{Q: q, Value: xs[rank(q, len(xs))-1], N: len(xs)}
}

// median is the nearest-rank median of a copy of xs, or 0 when empty.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return quantile(c, 0.5).Value
}

// sumOf is the sum of xs.
func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean is the arithmetic mean of xs, or 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sumOf(xs) / float64(len(xs))
}

// Tally counts attempted operations and those that failed or returned a
// wrong output. Both count against error_rate.
type Tally struct {
	Attempted int
	Failed    int
}

// Add records one operation; ok is false for an error or a wrong output.
func (t *Tally) Add(ok bool) {
	t.Attempted++
	if !ok {
		t.Failed++
	}
}

// Merge folds another tally into t.
func (t *Tally) Merge(o Tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
}

// ErrorRate is failed / attempted, or 1 when nothing was attempted (a run
// that did no work has failed).
func (t Tally) ErrorRate() float64 {
	if t.Attempted == 0 {
		return 1
	}
	return float64(t.Failed) / float64(t.Attempted)
}
