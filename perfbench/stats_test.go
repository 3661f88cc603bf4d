package main

import (
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		got := quantile(xs, c.q)
		if got.Value != c.want || got.N != 100 {
			t.Errorf("quantile(%v) = %v (n=%d), want %v (n=100)", c.q, got.Value, got.N, c.want)
		}
	}
	if got := quantile([]float64{3, 1, 2}, 0.5); got.Value != 2 || got.N != 3 {
		t.Errorf("median of 3 = %v (n=%d), want 2 (n=3)", got.Value, got.N)
	}
	if got := quantile(nil, 0.9); got.N != 0 || got.Value != 0 || got.Valid() {
		t.Errorf("empty quantile = %+v, want zero and invalid", got)
	}
}

func TestQuantileValidNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{100, 0.9, true}, {99, 0.9, false}, {20, 0.5, true}, {19, 0.5, false}, {1000, 0.99, true}, {999, 0.99, false}} {
		xs := make([]float64, c.n)
		if got := quantile(xs, c.q).Valid(); got != c.want {
			t.Errorf("n=%d q=%v: valid=%v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestTallyErrorRate(t *testing.T) {
	var tl Tally
	for i := 0; i < 10; i++ {
		tl.Add(i%5 != 0) // two failures
	}
	if tl.Attempted != 10 || tl.Failed != 2 || tl.ErrorRate() != 0.2 {
		t.Fatalf("tally = %+v rate %v, want 10 attempted, 2 failed, 0.2", tl, tl.ErrorRate())
	}
	var empty Tally
	if empty.ErrorRate() != 1 {
		t.Errorf("a run that attempted nothing has error rate %v, want 1", empty.ErrorRate())
	}
}

func TestSelfTimesCountOverlappingChildrenOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Layer: "loadgen", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Layer: "sweep", Start: 10 * ms, End: 90 * ms},
		{ID: 3, Parent: 2, Layer: "coin", Start: 10 * ms, End: 60 * ms},
		{ID: 4, Parent: 2, Layer: "coin", Start: 20 * ms, End: 80 * ms}, // overlaps 3
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"loadgen": 20 * ms, "sweep": 10 * ms, "coin": 110 * ms}
	for l, w := range want {
		if self[l] != w {
			t.Errorf("self[%s] = %v, want %v", l, self[l], w)
		}
	}
}
