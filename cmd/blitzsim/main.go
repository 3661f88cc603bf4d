// Command blitzsim reproduces the paper's figures and tables from the
// figure registry (blitzcoin.FigureNames). For each selected entry it
// prints "# <title>" and then the report lines of blitzcoin.RunFigure: the
// same lines blitzd serves for a figure request.
//
// Usage:
//
//	blitzsim -fig 7 [-trials 1000] [-seed 1]
//	blitzsim -fig all [-parallel 8]
//	blitzsim -fig 16 -outdir traces/
//	blitzsim -fig 3 -cpuprofile cpu.out -memprofile mem.out
//
// -outdir also writes the time series that report lines cannot carry: one
// power-trace CSV per Fig. 16 run (fig16_*.csv) and the Fig. 20 coin-count
// trace (fig20_coin_trace.csv). Sweeps fan out across -parallel worker
// goroutines (0 = GOMAXPROCS); every parallelism level prints identical
// lines. SIGINT cancels the sweep in flight: the trials that finished are
// folded into the lines, which print with a partial-results warning, and
// blitzsim exits 130.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"blitzcoin"
	"blitzcoin/internal/experiments"
	"blitzcoin/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one blitzsim invocation and returns its exit code: 0 on
// success, 1 on an I/O failure, 2 on a usage error, 130 when interrupted.
func run(args []string, stdout, stderr io.Writer) (code int) {
	names := blitzcoin.FigureNames()
	fs := flag.NewFlagSet("blitzsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "registry entry to reproduce ("+strings.Join(names, ", ")+") or all")
	trials := fs.Int("trials", 0, "Monte Carlo trials per point (0 = the figure's default)")
	seed := fs.Uint64("seed", 1, "base random seed")
	parallel := fs.Int("parallel", 0, "worker goroutines per sweep (0 = GOMAXPROCS); any value prints identical lines")
	outdir := fs.String("outdir", "", "directory for the Fig. 16 power-trace and Fig. 20 coin-trace CSVs (optional)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *fig != "all" {
		if _, ok := blitzcoin.FigureTitle(*fig); !ok {
			fmt.Fprintf(stderr, "blitzsim: unknown figure %q (want %s, or all)\n", *fig, strings.Join(names, ", "))
			return 2
		}
		names = []string{*fig}
	}
	sweep.SetDefaultParallelism(*parallel)

	// SIGINT/SIGTERM cancel the sweeps: no new trials are dispatched, the
	// trials already running finish, and the partial lines print.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fail := func(err error) int {
		fmt.Fprintf(stderr, "blitzsim: %v\n", err)
		return 1
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil && code == 0 {
				code = fail(err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			runtime.GC() // profile retained allocations, not garbage
			if err := writeFile(*memprofile, pprof.WriteHeapProfile); err != nil && code == 0 {
				code = fail(err)
			}
		}()
	}

	for i, name := range names {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		res, err := blitzcoin.RunFigure(ctx, blitzcoin.FigureOptions{Name: name, Trials: *trials, Seed: *seed})
		if err != nil {
			fmt.Fprintf(stderr, "blitzsim: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "# %s\n", res.Title)
		for _, line := range res.Lines {
			fmt.Fprintln(stdout, line)
		}
		if ctx.Err() != nil {
			fmt.Fprintln(stdout, "\nblitzsim: interrupted — partial results above (undispatched trials omitted)")
			return 130
		}
		if *outdir != "" {
			if err := writeTraces(*outdir, name, *seed, stderr); err != nil {
				return fail(err)
			}
		}
	}
	return 0
}

// writeTraces writes the time series behind a figure's report lines into
// dir: one power-trace CSV per Fig. 16 run, or the Fig. 20 coin trace.
// The other figures have none. The trace runs ignore SIGINT: a cancelled
// Fig. 16 sweep leaves runs without a trace to write.
func writeTraces(dir, name string, seed uint64, stderr io.Writer) error {
	o := blitzcoin.FigureOptions{Name: name, Seed: seed}.Normalized()
	traces := map[string]*bytes.Buffer{}
	switch name {
	case "16":
		experiments.Fig16(context.Background(), o.Seed, func(file string) io.Writer {
			traces[file] = new(bytes.Buffer)
			return traces[file]
		})
	case "20":
		rec, _ := experiments.Fig20Trace(o.BudgetMW, o.Seed)
		traces["fig20_coin_trace.csv"] = new(bytes.Buffer)
		if err := rec.WriteCSV(traces["fig20_coin_trace.csv"]); err != nil {
			return err
		}
	default:
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for file, b := range traces {
		if err := writeFile(filepath.Join(dir, file), func(w io.Writer) error {
			_, err := b.WriteTo(w)
			return err
		}); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "blitzsim: fig %s: %d trace CSV(s) written to %s\n", name, len(traces), dir)
	return nil
}

// writeFile creates path, fills it with write, and reports the first error
// of the write or the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
