package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// problems collects output-check failures from any goroutine.
type problems struct {
	mu   sync.Mutex
	list []string
}

func (p *problems) add(format string, args ...any) {
	p.mu.Lock()
	p.list = append(p.list, fmt.Sprintf(format, args...))
	p.mu.Unlock()
}

// report accumulates one run's outcome: the operation tally, the metric
// values, and informational lines for the human-readable output.
type report struct {
	tally    Tally
	metrics  map[string]float64
	infos    []string
	problems []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) metric(name string, v float64) { r.metrics[name] = v }

// info records a named figure that is printed but not part of the JSON
// result: the per-workload names the README maps onto the generic ones.
func (r *report) info(name string, v float64, unit string, n int) {
	r.infos = append(r.infos, fmt.Sprintf("%-28s %12.4f %-6s n=%d", name, v, unit, n))
}

// latency records <prefix>_p50 of xs (milliseconds) as a metric and
// prints it with p75 and p90, each with its sample count and a mark when
// fewer than ten samples lie beyond it. No tail is gated: on a shared
// host, vCPU steal of a few percent delays a share of the requests by
// milliseconds, and serve-mixed's p75 doubled in runs with 6-7% steal.
func (r *report) latency(prefix string, xs []float64) {
	for _, q := range []float64{0.5, 0.75, 0.9} {
		v := quantile(xs, q)
		name := fmt.Sprintf("%s_p%d", prefix, int(q*100))
		if q == 0.5 {
			r.metric(name, v.Value)
		}
		valid := ""
		if !v.Valid() {
			valid = " (fewer than 10 samples beyond)"
		}
		r.infos = append(r.infos, fmt.Sprintf("%-28s %12.4f %-6s n=%d%s", name, v.Value, "ms", v.N, valid))
	}
}

// absorb moves collected check failures into the report.
func (r *report) absorb(p *problems) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r.problems = append(r.problems, p.list...)
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

// setup runs fn setupRuns times and records the median as setup_s. fn
// receives whether it is the last set-up, whose state the run keeps.
func (r *report) setup(fn func(last bool) error) error {
	var ts []float64
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		if err := fn(i == setupRuns-1); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	r.metric("setup_s", median(ts))
	return nil
}

// overhead records how much slower the traced phase ran than the
// untraced one, as ratios of each class's median latency.
func (r *report) overhead(plainPrimary, tracedPrimary, plainSecondary, tracedSecondary []float64) {
	if a := median(plainPrimary); a > 0 {
		r.metric("tracing.overhead_ratio.primary_ms_p50", median(tracedPrimary)/a)
	}
	if a := median(plainSecondary); a > 0 {
		r.metric("tracing.overhead_ratio.secondary_ms_p50", median(tracedSecondary)/a)
	}
}

// spanLayers are the layers the benchmark's spans wrap.
var spanLayers = []string{"loadgen", "blitzcoin", "sweep", "coin", "soc", "server", "cluster"}

// spans derives the span-based layer metrics — self time per request,
// sweep efficiency and stragglers, run times — and writes the spans out.
func (r *report) spans(tr *Tracer, cfg runConfig, traced []Sample) {
	spans := tr.Spans()
	// Probe spans carry negative request IDs and are left out of the
	// per-request self times.
	var reqSpans []Span
	reqs := map[int]bool{}
	for _, s := range spans {
		if s.Req >= 0 {
			reqSpans = append(reqSpans, s)
			reqs[s.Req] = true
		}
	}
	self := selfTimes(reqSpans)
	for _, l := range spanLayers {
		if len(reqs) > 0 {
			r.metric(l+".self_ms_per_req", float64(self[l])/1e6/float64(len(reqs)))
		}
	}
	sweepStats(spans, r)
	for _, d := range []int{8, 12, 20, 32} {
		if xs := durationsMs(spans, "coin", fmt.Sprintf("d%d", d)); len(xs) > 0 {
			r.metric(fmt.Sprintf("coin.run_ms.d%d", d), median(xs))
		}
	}
	for _, p := range socPlatforms {
		if xs := durationsMs(spans, "soc", p); len(xs) > 0 {
			r.metric("soc.run_ms."+p, mean(xs))
		}
	}
	lag := lagsMs(traced)
	r.metric("loadgen.lag_ms_p50", quantile(lag, 0.5).Value)
	r.metric("loadgen.lag_ms_p90", quantile(lag, 0.9).Value)
	path := filepath.Join(cfg.OutDir, fmt.Sprintf("spans-%s-seed%d-%d.json", cfg.Workload, cfg.Seed, time.Now().UnixNano()))
	if err := tr.WriteFile(path); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("writing spans: %v", err))
		return
	}
	r.infos = append(r.infos, fmt.Sprintf("spans: %d written to %s", len(spans), path))
}

// sweepStats measures the sweep pool from its spans: the share of
// worker time spent in trials, and per sweep the slowest trial over the
// median one.
func sweepStats(spans []Span, r *report) {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Layer == "coin" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var busy, capacity time.Duration
	var ratios []float64
	workers := time.Duration(runtime.GOMAXPROCS(0))
	for _, s := range spans {
		if s.Layer != "sweep" || len(kids[s.ID]) == 0 {
			continue
		}
		var ts []float64
		for _, k := range kids[s.ID] {
			busy += k.Dur()
			ts = append(ts, float64(k.Dur()))
		}
		capacity += s.Dur() * workers
		sort.Float64s(ts)
		ratios = append(ratios, ts[len(ts)-1]/median(ts))
	}
	if capacity > 0 {
		r.metric("sweep.parallel_efficiency", float64(busy)/float64(capacity))
		r.metric("sweep.straggler_ratio", median(ratios))
	}
}

// heapSampler samples the live heap (the bytes the last completed GC
// found reachable) every 2ms. The reported peak is the 95th percentile of
// the samples: the true maximum depends on which instant a GC happened
// to run and moved ±20% between identical runs, the 95th percentile a
// few percent.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var mb []float64
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			mb = append(mb, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stopc:
				h.done <- quantile(mb, 0.95).Value
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}

// writeRecord stores the full outcome with its fingerprint for compare.
func writeRecord(path string, rec record) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printInfos writes the report's informational lines, then any check
// failures (the first few in full).
func (r *report) printInfos() {
	for _, l := range r.infos {
		fmt.Println(l)
	}
	for i, p := range r.problems {
		if i == 10 {
			fmt.Printf("CHECK FAILED: ... and %d more\n", len(r.problems)-i)
			break
		}
		fmt.Println("CHECK FAILED: " + strings.TrimSpace(p))
	}
}
