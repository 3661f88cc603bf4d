package main

import (
	"context"
	"testing"
	"time"
)

// A server that stalls must inflate the latency of every request that
// fell due during the stall, not only the one that hit it: latency runs
// from the due time, so the wait of the delayed sends is counted.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		rate    = 1000.0 // one request per millisecond
		stallAt = 10
		stall   = 40 * time.Millisecond
	)
	op := func(_ context.Context, i int, _ time.Time) (string, bool, time.Time) {
		if i == stallAt {
			time.Sleep(stall)
		}
		return "x", true, time.Now()
	}
	ss := openLoop(context.Background(), rate, 100*time.Millisecond, 1, 0, op)
	if len(ss) != 100 {
		t.Fatalf("%d samples, want 100", len(ss))
	}
	stallEnd := ss[stallAt].Done
	if stallEnd < time.Duration(stallAt)*time.Millisecond+stall {
		t.Fatalf("stalled request done at %v, before its stall ended", stallEnd)
	}
	for _, s := range ss[stallAt+1:] {
		if s.Intended >= stallEnd {
			break
		}
		if s.Latency() < stallEnd-s.Intended {
			t.Errorf("request %d due at %v: latency %v, want at least %v", s.Index, s.Intended, s.Latency(), stallEnd-s.Intended)
		}
		if s.Lag() <= 0 {
			t.Errorf("request %d due during the stall was not sent late (lag %v)", s.Index, s.Lag())
		}
	}
	// At least a quarter of the requests were delayed by ~10ms or more, so
	// p90 must show the stall; a closed-loop view (send to done) would not.
	if p90 := quantile(latenciesMs(ss, ""), 0.9).Value; p90 < 10 {
		t.Errorf("p90 %.2fms does not show the %v stall", p90, stall)
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	op := func(_ context.Context, i int, _ time.Time) (string, bool, time.Time) {
		return "x", i%4 != 0, time.Now()
	}
	ss := openLoop(context.Background(), 2000, 20*time.Millisecond, 2, 0, op)
	tl := tally(ss)
	if tl.Attempted != 40 || tl.Failed != 10 {
		t.Fatalf("tally %+v, want 40 attempted, 10 failed", tl)
	}
	if tl.ErrorRate() != 0.25 {
		t.Errorf("error rate %v, want 0.25", tl.ErrorRate())
	}
}

func TestClosedLoopRunsWholeBlocks(t *testing.T) {
	op := func(_ context.Context, i int, _ time.Time) (string, bool, time.Time) {
		time.Sleep(100 * time.Microsecond)
		return "x", true, time.Now()
	}
	ss := closedLoop(context.Background(), 5*time.Millisecond, 7, 14, op)
	if len(ss) == 0 || len(ss)%7 != 0 {
		t.Fatalf("%d samples, want a positive multiple of 7", len(ss))
	}
	if ss[0].Index != 14 {
		t.Errorf("first index %d, want 14", ss[0].Index)
	}
	for i := 1; i < len(ss); i++ {
		if ss[i].Intended < ss[i-1].Done {
			t.Errorf("request %d due at %v before the previous one finished at %v", i, ss[i].Intended, ss[i-1].Done)
		}
	}
}

// Block means average one class within each whole block and drop the
// partial block at the end.
func TestBlockMeansPerClass(t *testing.T) {
	ms := time.Millisecond
	ss := []Sample{
		{Class: "a", Done: 2 * ms}, {Class: "b", Done: 10 * ms}, {Class: "a", Done: 4 * ms},
		{Class: "a", Done: 6 * ms}, {Class: "b", Done: 20 * ms}, {Class: "b", Done: 30 * ms},
		{Class: "a", Done: 100 * ms},
	}
	if got := blockMeansMs(ss, 3, "a"); len(got) != 2 || got[0] != 3 || got[1] != 6 {
		t.Errorf("class a block means %v, want [3 6]", got)
	}
	if got := blockMeansMs(ss, 3, "b"); len(got) != 2 || got[0] != 10 || got[1] != 25 {
		t.Errorf("class b block means %v, want [10 25]", got)
	}
}
