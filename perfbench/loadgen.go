package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Sample is one timed operation. Times are offsets from the start of the
// phase that issued it. Intended is when the operation was due: the
// schedule slot in an open loop, the previous completion in a closed one.
// Latency is measured from Intended, so a stall that delays later sends
// is charged to every request it delayed (no coordinated omission).
type Sample struct {
	Index    int
	Class    string
	Intended time.Duration
	Sent     time.Duration
	Done     time.Duration
	OK       bool
}

// Latency is completion minus due time.
func (s Sample) Latency() time.Duration { return s.Done - s.Intended }

// Lag is how late the generator sent the operation.
func (s Sample) Lag() time.Duration { return s.Sent - s.Intended }

// Op performs operation i, which was due at the given time, and reports
// its class, whether it succeeded with a correct output, and when the
// measured call returned (output checks that follow are not part of its
// latency).
type Op func(ctx context.Context, i int, due time.Time) (class string, ok bool, done time.Time)

// openLoop issues operations on a fixed schedule — operation i is due at
// i/rate after the start — over conns concurrent senders, until dur has
// elapsed. A sender takes the next due operation as soon as it is free, so
// when every sender is blocked the schedule keeps running and later
// operations go out late, with that wait counted in their latency. first
// offsets the operation indices, so a phase can continue a stream.
func openLoop(ctx context.Context, rate float64, dur time.Duration, conns, first int, op Op) []Sample {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur / interval)
	out := make([]Sample, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := time.Duration(k) * interval
				sleepUntil(start.Add(due))
				sent := time.Since(start)
				class, ok, done := op(ctx, first+k, start.Add(due))
				out[k] = Sample{Index: first + k, Class: class, Intended: due, Sent: sent, Done: done.Sub(start), OK: ok}
			}
		}()
	}
	wg.Wait()
	return out[:min(n, int(next.Load()))]
}

// sleepUntil returns at t. Runtime timers wake an idle process only to
// the millisecond, a tenth of a hit's latency, so it sleeps in the
// nanosleep system call, which frees the goroutine's processor and
// wakes within tens of microseconds, and yields for the rest.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 50*time.Microsecond; d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop runs operations first, first+1, ... back to back from one
// caller until dur has elapsed and then until the operation count is a
// multiple of block, so every run covers whole blocks of the workload's
// fixed mix. Operation i+1 is due when operation i's measured call
// returned, so time spent on checks between them shows as lag.
func closedLoop(ctx context.Context, dur time.Duration, block, first int, op Op) []Sample {
	var out []Sample
	start := time.Now()
	prev := time.Duration(0)
	for i := 0; ; i++ {
		if i%block == 0 && (time.Since(start) >= dur || ctx.Err() != nil) {
			return out
		}
		sent := time.Since(start)
		class, ok, done := op(ctx, first+i, start.Add(prev))
		out = append(out, Sample{Index: first + i, Class: class, Intended: prev, Sent: sent, Done: done.Sub(start), OK: ok})
		prev = time.Since(start)
	}
}

// saturate runs operations back to back on conns concurrent callers
// until dur has elapsed: the closed-loop capacity of the target.
func saturate(ctx context.Context, dur time.Duration, conns, first int, op Op) []Sample {
	var next atomic.Int64
	var mu sync.Mutex
	var out []Sample
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(start) < dur {
				k := int(next.Add(1) - 1)
				sent := time.Since(start)
				class, ok, done := op(ctx, first+k, start.Add(sent))
				mu.Lock()
				out = append(out, Sample{Index: first + k, Class: class, Intended: sent, Sent: sent, Done: done.Sub(start), OK: ok})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// blockRate is the median over consecutive blocks of samples of the
// block's operations per second of their summed latency. A burst of
// host noise then moves only the blocks it hit, not the median.
func blockRate(ss []Sample, block int) float64 {
	var rates []float64
	for i := 0; i+block <= len(ss); i += block {
		var busy time.Duration
		for _, s := range ss[i : i+block] {
			busy += s.Latency()
		}
		rates = append(rates, float64(block)/busy.Seconds())
	}
	return median(rates)
}

// blockMeansMs returns, for each consecutive block of samples, the mean
// latency in milliseconds of the block's samples of one class.
func blockMeansMs(ss []Sample, block int, class string) []float64 {
	var out []float64
	for i := 0; i+block <= len(ss); i += block {
		if xs := latenciesMs(ss[i:i+block], class); len(xs) > 0 {
			out = append(out, mean(xs))
		}
	}
	return out
}

// windowRate is the median over windows of the given length of the
// operations completed per second.
func windowRate(ss []Sample, window time.Duration) float64 {
	counts := map[int]int{}
	last := 0
	for _, s := range ss {
		w := int(s.Done / window)
		counts[w]++
		last = max(last, w)
	}
	var rates []float64
	for w := 0; w < last; w++ { // the last window is partial
		rates = append(rates, float64(counts[w])/window.Seconds())
	}
	return median(rates)
}

// latenciesMs returns the latencies of the samples of one class (all
// classes when class is empty), in milliseconds.
func latenciesMs(ss []Sample, class string) []float64 {
	var out []float64
	for _, s := range ss {
		if class == "" || s.Class == class {
			out = append(out, float64(s.Latency())/1e6)
		}
	}
	return out
}

// lagsMs returns every sample's send lag in milliseconds.
func lagsMs(ss []Sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.Lag()) / 1e6
	}
	return out
}

// tally counts the samples' outcomes.
func tally(ss []Sample) Tally {
	var t Tally
	for _, s := range ss {
		t.Add(s.OK)
	}
	return t
}
