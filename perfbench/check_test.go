package main

import (
	"encoding/json"
	"testing"

	"blitzcoin"
)

func TestCheckResultFlagsWrongOutputs(t *testing.T) {
	req := exchangeRequest(8, 4, 11)
	res, err := blitzcoin.Execute(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(req, res); err != nil {
		t.Fatalf("a correct sweep fails the checks: %v", err)
	}
	bad := *res.Exchange
	bad.Conserved--
	if checkResult(req, &blitzcoin.Result{Kind: res.Kind, Exchange: &bad}) == nil {
		t.Error("a sweep that lost coins passes the checks")
	}
	bad = *res.Exchange
	bad.Converged--
	if checkResult(req, &blitzcoin.Result{Kind: res.Kind, Exchange: &bad}) == nil {
		t.Error("a sweep with an unconverged trial passes the checks")
	}
	soc := socRequest("3x3", blitzcoin.BCC, 11)
	if checkResult(soc, &blitzcoin.Result{Kind: blitzcoin.KindSoC, SoC: &blitzcoin.SoCResult{}}) == nil {
		t.Error("an SoC run that did not complete passes the checks")
	}
}

// resultSHA ignores serving provenance (shard count, ledger position) but
// sees any change to the result itself.
func TestResultSHAIgnoresProvenanceOnly(t *testing.T) {
	req := exchangeRequest(8, 4, 12)
	res, err := blitzcoin.Execute(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	sha := func(r *blitzcoin.Result) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		s, err := resultSHA(b)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := sha(res)
	res.Exchange.Meta.Shards = 4
	res.SetLedgerProvenance(9, "root")
	if got := sha(res); got != base {
		t.Errorf("provenance changed the digest: %s vs %s", got, base)
	}
	res.Exchange.Rows[0].Exchanges++
	if got := sha(res); got == base {
		t.Error("a changed row kept the digest")
	}
}

// A hit that serves other bytes than the first hit on its key is a wrong
// output.
func TestServeVerifyKnownCatchesChangedBytes(t *testing.T) {
	req := exchangeRequest(8, 4, 13)
	h, err := req.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	want, err := localSHA(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := blitzcoin.Execute(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	w := &serveMixed{want: map[string]string{h: want}, seen: map[string][32]byte{}}
	if err := w.verifyKnown(h, raw); err != nil {
		t.Fatalf("first correct result rejected: %v", err)
	}
	if err := w.verifyKnown(h, raw); err != nil {
		t.Fatalf("repeated hit rejected: %v", err)
	}
	res.Exchange.Rows[0].FinalErr += 1
	other, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if w.verifyKnown(h, other) == nil {
		t.Error("a hit with changed bytes passes")
	}
	w2 := &serveMixed{want: map[string]string{h: want}, seen: map[string][32]byte{}}
	if w2.verifyKnown(h, other) == nil {
		t.Error("a wrong first result passes")
	}
}

// The committed digest list must match what the engine computes now.
func TestCommittedDigestsMatchEngine(t *testing.T) {
	d, err := digestList(engineDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != digestBlocks*engineBlockLen {
		t.Fatalf("%d digests, want %d", len(d), digestBlocks*engineBlockLen)
	}
	for i := 0; i < engineBlockLen; i++ {
		it := engineItem(defaultSeed, i)
		if it.Req.Exchange != nil && it.Req.Exchange.Dim == 32 {
			continue // the slowest request; the benchmark run checks it
		}
		got, err := localSHA(it.Req)
		if err != nil {
			t.Fatal(err)
		}
		if got != d[i] {
			t.Errorf("request %d (%s): digest %s, committed %s", i, describe(it.Req), got, d[i])
		}
	}
}

// compare refuses records made on different hosts or with different run
// settings, and accepts a matching cohort.
func TestCompareRefusesMixedCohorts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fp fingerprint) string {
		path := dir + "/" + name
		res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"setup_s": {1, "s"}}}
		if err := writeRecord(path, record{Fingerprint: fp, Result: res}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := fingerprint{CPU: "cpu A", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", Workload: "engine-sweep", Seconds: 25, Commit: "a"}
	other := base
	other.Commit, other.Seed = "b", 7
	a, b := write("a.json", base), write("b.json", other)
	if code := compare([]string{a, "vs", b}); code != 0 {
		t.Errorf("same cohort, different commit and seed: exit %d, want 0", code)
	}
	for _, change := range []func(*fingerprint){
		func(f *fingerprint) { f.CPU = "cpu B" },
		func(f *fingerprint) { f.NProc = 4 },
		func(f *fingerprint) { f.GOMAXPROCS = 1 },
		func(f *fingerprint) { f.Go = "go1.23.0" },
		func(f *fingerprint) { f.Seconds = 10 },
	} {
		fp := base
		change(&fp)
		c := write("c.json", fp)
		if code := compare([]string{a, "vs", c}); code != 3 {
			t.Errorf("mixed cohort %+v: exit %d, want 3", fp, code)
		}
	}
}
