// Command perfbench is the repository benchmark: it drives the BlitzCoin
// engine and the blitzd serving stack from outside, in one process, on
// seeded workloads, checks every output, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	perfbench --workload engine-sweep|serve-mixed|cluster-sweep|all --seed N --seconds S --trace 0|1
//	perfbench --list-metrics
//	perfbench --write-digests
//	perfbench compare A.json [A2.json ...] vs B.json [B2.json ...]
//
// See README.md for the workloads, the metrics and what each one means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

var bg = context.Background()

// runConfig is one invocation's settings.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	WorkDir  string // scratch state (stores, ledgers, key files)
	OutDir   string // records and span files
}

// phase is a share of the run's measuring time.
func (c runConfig) phase(share float64) time.Duration {
	return time.Duration(share * c.Seconds * float64(time.Second))
}

type workloadDef struct {
	name, why string
	run       func(runConfig, *report) error
}

var workloads = []workloadDef{
	{"engine-sweep", "closed loop of in-process Execute calls (exchange sweeps, SoC runs): the engine layers do the work", runEngine},
	{"serve-mixed", "open loop against a full blitzd stack: memory hits, disk hits and misses; the serving layers do the work", runServe},
	{"cluster-sweep", "closed loop of shardable misses through a coordinator and two workers: the cluster layer does the work", runCluster},
}

// metricDef names one reported metric.
type metricDef struct{ Name, Unit, Better string }

// e2eMetrics are reported by every workload on untraced runs.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"primary_ms_p50", "ms", "lower"},
	{"secondary_ms_p50", "ms", "lower"},
}

// layerMetrics are reported by every workload on traced runs; a layer
// the workload does not reach reads 0.
var layerMetrics = []metricDef{
	{"blitzcoin.decode_hash_us", "us", "lower"},
	{"blitzcoin.result_encode_us", "us", "lower"},
	{"blitzcoin.result_sha_us", "us", "lower"},
	{"blitzcoin.merge_shards_us", "us", "lower"},
	{"blitzcoin.self_ms_per_req", "ms", "lower"},
	{"sweep.parallel_efficiency", "ratio", "higher"},
	{"sweep.straggler_ratio", "ratio", "lower"},
	{"sweep.self_ms_per_req", "ms", "lower"},
	{"coin.run_ms.d8", "ms", "lower"},
	{"coin.run_ms.d12", "ms", "lower"},
	{"coin.run_ms.d20", "ms", "lower"},
	{"coin.run_ms.d32", "ms", "lower"},
	{"coin.sim_cycles", "count", "lower"},
	{"coin.exchanges", "count", "lower"},
	{"coin.packets", "count", "lower"},
	{"coin.self_ms_per_req", "ms", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.host_ns_per_event", "ns", "lower"},
	{"noc.packets_sent", "count", "lower"},
	{"noc.hops", "count", "lower"},
	{"noc.contention_cycles", "count", "lower"},
	{"noc.mean_latency_cycles", "cycles", "lower"},
	{"noc.packets_per_s.healthy", "1/s", "higher"},
	{"noc.packets_per_s.contended", "1/s", "higher"},
	{"mesh.next_hop_ns", "ns", "lower"},
	{"soc.run_ms.3x3", "ms", "lower"},
	{"soc.run_ms.4x4", "ms", "lower"},
	{"soc.run_ms.6x6", "ms", "lower"},
	{"soc.sim_exec_us", "us", "lower"},
	{"soc.self_ms_per_req", "ms", "lower"},
	{"server.elapsed_us_p50.memory", "us", "lower"},
	{"server.elapsed_us_p50.disk", "us", "lower"},
	{"server.elapsed_us_p50.miss", "us", "lower"},
	{"server.mem_hit_ratio", "ratio", "higher"},
	{"server.disk_hit_ratio", "ratio", "higher"},
	{"server.coalesced", "count", "higher"},
	{"server.self_ms_per_req", "ms", "lower"},
	{"tenant.authenticate_us", "us", "lower"},
	{"tenant.allow_request_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.hits", "count", "higher"},
	{"store.misses", "count", "lower"},
	{"store.evictions", "count", "lower"},
	{"ledger.append_us", "us", "lower"},
	{"trace.publish_ns.0sub", "ns", "lower"},
	{"trace.publish_ns.1sub", "ns", "lower"},
	{"cluster.shard_service_ms_p50", "ms", "lower"},
	{"cluster.overhead_ratio", "ratio", "lower"},
	{"cluster.useful_shard_ratio", "ratio", "higher"},
	{"cluster.self_ms_per_req", "ms", "lower"},
	{"loadgen.lag_ms_p50", "ms", "lower"},
	{"loadgen.lag_ms_p90", "ms", "lower"},
	{"loadgen.self_ms_per_req", "ms", "lower"},
	{"tracing.overhead_ratio.primary_ms_p50", "ratio", "lower"},
	{"tracing.overhead_ratio.secondary_ms_p50", "ratio", "lower"},
}

// metricValue is one entry of the JSON result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the result plus its fingerprint, kept for compare.
type record struct {
	Fingerprint fingerprint `json:"fingerprint"`
	// StealPct is the share of the host's CPU time the hypervisor gave to
	// other guests during the run: a run with more steal reads slower.
	StealPct float64  `json:"steal_pct"`
	Result   result   `json:"result"`
	Problems []string `json:"problems,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	var (
		name        = flag.String("workload", "", "engine-sweep, serve-mixed, cluster-sweep, or all")
		seed        = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds     = flag.Float64("seconds", 25, "measuring time per run")
		trace       = flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
		listMetrics = flag.Bool("list-metrics", false, "print every metric with its unit and exit")
		digestsOnly = flag.Bool("write-digests", false, "print the engine-sweep digest list for the default seed and exit")
	)
	flag.Parse()
	switch {
	case *listMetrics:
		printMetricList()
		return
	case *digestsOnly:
		if err := writeDigests(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	base := filepath.Join(".bench_build", "perfbench")
	cfg := runConfig{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: filepath.Join(base, "results")}
	if err := checkCheckout(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(cfg, base))
	}
	// A single run reports failed checks in its result line ("correct":
	// false and the "failed" count); its exit code says whether it
	// produced a result at all.
	code := runOne(cfg, base, true)
	if code == 1 {
		code = 0
	}
	os.Exit(code)
}

// checkCheckout refuses to run outside a checkout of the repository: the
// benchmark measures the program next to it.
func checkCheckout() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	return nil
}

// runOne runs one workload and prints its result. It returns 2 when the
// run produced no result, 1 when an output check failed, else 0.
func runOne(cfg runConfig, base string, jsonLine bool) int {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.Workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.Workload)
		return 2
	}
	if err := os.MkdirAll(filepath.Join(base, "work"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	work, err := os.MkdirTemp(filepath.Join(base, "work"), cfg.Workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(work)
	cfg.WorkDir = work
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	fp := newFingerprint(cfg)
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	fmt.Printf("fingerprint: %s\n", fp)
	rep := newReport()
	steal := startStealMeter()
	if err := def.run(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	res := result{
		Correct:   len(rep.problems) == 0 && rep.tally.Failed == 0 && rep.tally.Attempted > 0,
		Attempted: rep.tally.Attempted,
		Failed:    rep.tally.Failed,
		Metrics:   map[string]metricValue{},
	}
	defs := e2eMetrics
	if cfg.Trace {
		defs = layerMetrics
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok && !cfg.Trace {
			rep.problems = append(rep.problems, "metric not measured: "+d.Name)
			res.Correct = false
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	rep.printInfos()
	fmt.Printf("%-28s %12.6f %-6s attempted=%d failed=%d\n", "error_rate", rep.tally.ErrorRate(), "ratio", res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Printf("%-40s %16.6f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	path := filepath.Join(cfg.OutDir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", cfg.Workload, cfg.Seed, b2i(cfg.Trace), time.Now().UnixNano()))
	stealPct := steal()
	fmt.Printf("%-28s %12.2f %%\n", "host_steal", stealPct)
	if err := writeRecord(path, record{fp, stealPct, res, rep.problems}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing record:", err)
	} else {
		fmt.Println("record:", path)
	}
	if jsonLine {
		b, _ := json.Marshal(res) // plain map of floats and strings: cannot fail
		fmt.Println(string(b))
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in turn; it exits non-zero if any run
// failed an output check or produced no result.
func runAll(cfg runConfig, base string) int {
	code := 0
	for _, w := range workloads {
		c := cfg
		c.Workload = w.name
		if rc := runOne(c, base, false); rc != 0 {
			code = rc
		}
		fmt.Println()
	}
	return code
}

func printMetricList() {
	fmt.Println("# end-to-end metrics (every workload, --trace 0)")
	for _, d := range e2eMetrics {
		fmt.Printf("%-40s %-6s %s is better\n", d.Name, d.Unit, d.Better)
	}
	fmt.Println("# per-layer metrics (every workload, --trace 1; 0 where the workload does not reach the layer)")
	for _, d := range layerMetrics {
		fmt.Printf("%-40s %-6s %s is better\n", d.Name, d.Unit, d.Better)
	}
	fmt.Println("# printed with each run, not in the JSON result")
	fmt.Printf("%-40s %-6s %s\n", "error_rate", "ratio", "failed or wrong operations / attempted")
	fmt.Println("# workloads")
	for _, w := range workloads {
		fmt.Printf("%-14s %s\n", w.name, w.why)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
