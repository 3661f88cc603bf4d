package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blitzcoin"
)

// blitzsim prints the registry's title and RunFigure's lines, nothing else:
// the CLI and a served figure are the same bytes by construction.
func TestPrintsRunFigureLines(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		name   string
		trials int
	}{
		{[]string{"-fig", "13"}, "13", 0},
		{[]string{"-fig", "3", "-trials", "2"}, "3", 2},
		{[]string{"-fig", "7", "-trials", "2"}, "7", 2},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", tc.args, code, stderr.String())
		}
		res, err := blitzcoin.RunFigure(context.Background(), blitzcoin.FigureOptions{Name: tc.name, Trials: tc.trials})
		if err != nil {
			t.Fatal(err)
		}
		want := "# " + res.Title + "\n" + strings.Join(res.Lines, "\n") + "\n"
		if got := stdout.String(); got != want {
			t.Errorf("%v: stdout differs from RunFigure\n got: %q\nwant: %q", tc.args, got, want)
		}
	}
}

func TestUnknownFigureListsNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown figure printed to stdout: %q", stdout.String())
	}
	for _, name := range blitzcoin.FigureNames() {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("usage error %q does not list %q", stderr.String(), name)
		}
	}
}

func TestOutdirWritesTraces(t *testing.T) {
	dir := t.TempDir()
	for _, fig := range []string{"16", "20"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-fig", fig, "-outdir", dir}, &stdout, &stderr); code != 0 {
			t.Fatalf("-fig %s: exit %d, stderr %q", fig, code, stderr.String())
		}
	}
	fig16, err := filepath.Glob(filepath.Join(dir, "fig16_*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig16) != 6 {
		t.Fatalf("Fig. 16 traces = %v, want one per (scheme, budget) run: 6", fig16)
	}
	for _, path := range append(fig16, filepath.Join(dir, "fig20_coin_trace.csv")) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(string(b), "\n"); lines < 2 {
			t.Errorf("%s: %d lines, want a header and samples", filepath.Base(path), lines)
		}
	}
}
