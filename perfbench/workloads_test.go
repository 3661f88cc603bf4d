package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"blitzcoin"
)

func TestWorkloadsAreIdenticalForTheSameSeed(t *testing.T) {
	for b := 0; b < 3; b++ {
		if !reflect.DeepEqual(engineBlock(7, b), engineBlock(7, b)) {
			t.Errorf("engine block %d differs between two generations", b)
		}
		if !reflect.DeepEqual(clusterBlock(7, b), clusterBlock(7, b)) {
			t.Errorf("cluster block %d differs between two generations", b)
		}
	}
	if !reflect.DeepEqual(newServeKeys(7), newServeKeys(7)) {
		t.Error("serve key space differs between two generations")
	}
	keys := newServeKeys(7)
	for i := 0; i < 200; i++ {
		if !reflect.DeepEqual(serveItem(7, keys, i), serveItem(7, keys, i)) {
			t.Fatalf("serve request %d differs between two generations", i)
		}
	}
	if reflect.DeepEqual(engineBlock(7, 0), engineBlock(8, 0)) {
		t.Error("seeds 7 and 8 generate the same engine block")
	}
}

// The seed changes the inputs, never the mix: every block has the same
// request shapes, so runs with different seeds measure the same work.
func TestBlocksKeepTheirMixAcrossSeeds(t *testing.T) {
	shape := func(items []Item) map[string]int {
		m := map[string]int{}
		for _, it := range items {
			m[withoutSeed(it.Req)]++
		}
		return m
	}
	for _, seed := range []uint64{1, 2, 99} {
		for b := 0; b < 3; b++ {
			if got, want := shape(engineBlock(seed, b)), shape(engineBlock(1, 0)); !reflect.DeepEqual(got, want) {
				t.Errorf("engine block %d seed %d mix %v, want %v", b, seed, got, want)
			}
			if got, want := shape(clusterBlock(seed, b)), shape(clusterBlock(1, 0)); !reflect.DeepEqual(got, want) {
				t.Errorf("cluster block %d seed %d mix %v, want %v", b, seed, got, want)
			}
		}
	}
	if n := len(engineBlock(1, 0)); n != engineBlockLen {
		t.Errorf("engine block has %d requests, engineBlockLen says %d", n, engineBlockLen)
	}
}

// withoutSeed renders a request with its seed cleared: its shape.
func withoutSeed(req blitzcoin.Request) string {
	switch {
	case req.Exchange != nil:
		o := *req.Exchange
		o.Seed = 0
		req.Exchange = &o
	case req.SoC != nil:
		o := *req.SoC
		o.Seed = 0
		req.SoC = &o
	case req.Figure != nil:
		o := *req.Figure
		o.Seed = 0
		req.Figure = &o
	}
	b, _ := json.Marshal(req) // plain option structs: cannot fail
	return string(b)
}

func TestServeMixIsRoughlySeventyTwentyTen(t *testing.T) {
	keys := newServeKeys(3)
	hot := map[string]bool{}
	for _, r := range keys.Hot {
		h, _ := r.CanonicalHash()
		hot[h] = true
	}
	var nHot, nCold, nFresh int
	const n = 20000
	for i := 0; i < n; i++ {
		in := serveItem(3, keys, i)
		h, _ := in.Req.CanonicalHash()
		switch {
		case in.Fresh:
			nFresh++
		case hot[h]:
			nHot++
		default:
			nCold++
		}
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"hot", float64(nHot) / n, 0.7}, {"cold", float64(nCold) / n, 0.2}, {"fresh", float64(nFresh) / n, 0.1}} {
		if c.got < c.want-0.02 || c.got > c.want+0.02 {
			t.Errorf("%s share %.3f, want %.2f", c.name, c.got, c.want)
		}
	}
}

// BENCHMARK.json at the repository root must declare exactly the
// metrics and workloads the benchmark reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}

// The capacity phase draws only keys of the key space, hot and cold in
// the stream's proportions.
func TestHitItemsNeverMiss(t *testing.T) {
	keys := newServeKeys(3)
	hot := map[string]bool{}
	for _, r := range keys.Hot {
		h, _ := r.CanonicalHash()
		hot[h] = true
	}
	nHot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		in := hitItem(3, keys, i)
		if in.Fresh {
			t.Fatalf("hit item %d is a fresh key", i)
		}
		if h, _ := in.Req.CanonicalHash(); hot[h] {
			nHot++
		}
	}
	if got := float64(nHot) / n; got < 0.76 || got > 0.80 {
		t.Errorf("hot share %.3f, want 7/9", got)
	}
}
