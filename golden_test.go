package blitzcoin

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden/figures.txt (only alongside an EngineVersion bump)")

const figureGoldenPath = "testdata/golden/figures.txt"

// goldenFigureOptions reduces a figure to a size the whole registry runs at
// in about a second, while still driving every runner and its row format.
func goldenFigureOptions(name string) FigureOptions {
	o := FigureOptions{Name: name, Trials: 2, Dims: []int{4, 8}, Ns: []int{16}}
	if name == "contention" {
		o.Dim = 6
		o.BgRates = []int{0, 50}
	}
	return o
}

// TestFigureGoldenCorpus pins what the engine computes, not only that it
// computes the same thing at every parallelism: each registry entry's
// CanonicalResultSHA at goldenFigureOptions must match the committed corpus.
// A deliberate engine change bumps EngineVersion and regenerates the corpus
// with -update-golden in the same commit.
func TestFigureGoldenCorpus(t *testing.T) {
	got := map[string]string{}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# CanonicalResultSHA of Execute per figure at goldenFigureOptions (golden_test.go)\n")
	fmt.Fprintf(&buf, "engine_version %s\n", EngineVersion)
	for _, name := range FigureNames() {
		o := goldenFigureOptions(name)
		res, err := Execute(context.Background(), Request{Figure: &o})
		if err != nil {
			t.Fatalf("figure %s: %v", name, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sha, err := CanonicalResultSHA(b)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = sha
		fmt.Fprintf(&buf, "%s %s\n", name, sha)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(figureGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figureGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(figureGoldenPath)
	if err != nil {
		t.Fatalf("%v (bootstrap with -update-golden)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed corpus line %q", line)
		}
		want[key] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if v := want["engine_version"]; v != EngineVersion {
		t.Fatalf("corpus is for engine %q, EngineVersion is %q: regenerate with -update-golden", v, EngineVersion)
	}
	delete(want, "engine_version")
	for name, sha := range got {
		if want[name] != sha {
			t.Errorf("figure %s: sha %s, corpus has %q", name, sha, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("corpus lists %s, which the registry no longer has", name)
		}
	}
}
