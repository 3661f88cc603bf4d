package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint identifies where and on what a run was made. The host part
// (CPU, core count, GOMAXPROCS, Go version) and the run settings must
// match for two records to be compared; commit, source digest and seed
// name the sides being compared.
type fingerprint struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	SourceSHA  string  `json:"source_sha"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func newFingerprint(cfg runConfig) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
		SourceSHA:  sourceSHA("."),
		Workload:   cfg.Workload,
		Seed:       cfg.Seed,
		Seconds:    cfg.Seconds,
		Trace:      cfg.Trace,
	}
}

func (f fingerprint) String() string {
	b, _ := json.Marshal(f) // strings and numbers only: cannot fail
	return string(b)
}

// cohort is the part of the fingerprint two compared records must share.
func (f fingerprint) cohort() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s workload=%s seconds=%g trace=%v",
		f.CPU, f.NProc, f.GOMAXPROCS, f.Go, f.Workload, f.Seconds, f.Trace)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// startStealMeter reads the host's CPU counters and returns a function
// that reports the share of CPU time stolen by the hypervisor since, in
// percent (0 where /proc/stat is not available).
func startStealMeter() func() float64 {
	before := cpuTimes()
	return func() float64 {
		after := cpuTimes()
		if len(before) < 8 || len(after) < 8 {
			return 0
		}
		var total float64
		for i := range after {
			total += after[i] - before[i]
		}
		if total <= 0 {
			return 0
		}
		return 100 * (after[7] - before[7]) / total
	}
}

// cpuTimes returns the aggregate CPU line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal, ...
func cpuTimes() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "cpu" {
		return nil
	}
	var out []float64
	for _, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// commit is the checked-out commit when the tree is a git repository,
// else "none"; the source digest identifies the code either way.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceSHA digests the program's sources under root: every .go file
// and go.mod outside the benchmark's own directory, build outputs and
// hidden directories, by path and content.
func sourceSHA(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// compare prints per-metric medians of two sets of records, A and B,
// separated by "vs". It refuses records whose cohorts differ.
func compare(args []string) int {
	var sides [2][]record
	side := 0
	for _, a := range args {
		if a == "vs" {
			side = 1
			continue
		}
		b, err := os.ReadFile(a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", a, err)
			return 2
		}
		sides[side] = append(sides[side], rec)
	}
	if len(sides[0]) == 0 || len(sides[1]) == 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.json [A2.json ...] vs B.json [B2.json ...]")
		return 2
	}
	want := sides[0][0].Fingerprint.cohort()
	for _, s := range sides {
		for _, r := range s {
			if got := r.Fingerprint.cohort(); got != want {
				fmt.Fprintf(os.Stderr, "perfbench compare: refusing to mix cohorts:\n  %s\n  %s\n", want, got)
				return 3
			}
		}
	}
	fmt.Printf("cohort: %s\nA: %d runs, B: %d runs\n", want, len(sides[0]), len(sides[1]))
	fmt.Printf("%-40s %14s %14s %9s\n", "metric", "A median", "B median", "B/A")
	for _, name := range sortedKeys(sides[0][0].Result.Metrics) {
		var med [2]float64
		for i, s := range sides {
			var xs []float64
			for _, r := range s {
				if v, ok := r.Result.Metrics[name]; ok {
					xs = append(xs, v.Value)
				}
			}
			med[i] = median(xs)
		}
		ratio := 0.0
		if med[0] != 0 {
			ratio = med[1] / med[0]
		}
		fmt.Printf("%-40s %14.4f %14.4f %9.4f\n", name, med[0], med[1], ratio)
	}
	return 0
}
