package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"blitzcoin"
	"blitzcoin/internal/sweep"
)

// engineSweep drives Execute in-process from one closed-loop caller over
// the seeded stream of exchange sweeps and SoC runs. Serving layers do no
// work here.
type engineSweep struct {
	seed    uint64
	digests map[int]string // expected result digests (default seed only)

	block    []Item // cached current block of the stream
	blockIdx int
}

func newEngineSweep(seed uint64) (*engineSweep, error) {
	w := &engineSweep{seed: seed, blockIdx: -1}
	if seed == defaultSeed {
		d, err := digestList(engineDigestFile)
		if err != nil {
			return nil, err
		}
		w.digests = d
	}
	return w, nil
}

func (w *engineSweep) item(i int) Item {
	if b := i / engineBlockLen; b != w.blockIdx {
		w.block, w.blockIdx = engineBlock(w.seed, b), b
	}
	return w.block[i%engineBlockLen]
}

// setup generates the first blocks of inputs and runs a small exchange
// sweep and one BC run per platform, so lazy initialisation is paid
// before timing.
func (w *engineSweep) setup() error {
	for b := 0; b < 4; b++ {
		engineBlock(w.seed, b)
	}
	warm := []blitzcoin.Request{exchangeRequest(engineDims[0], engineTrials, w.seed)}
	for _, p := range socPlatforms {
		warm = append(warm, socRequest(p, blitzcoin.BC, w.seed))
	}
	for _, req := range warm {
		res, err := blitzcoin.Execute(bg, req)
		if err != nil {
			return err
		}
		if err := checkResult(req, res); err != nil {
			return err
		}
	}
	return nil
}

// verify checks one result; the default seed also pins its digest.
func (w *engineSweep) verify(i int, req blitzcoin.Request, res *blitzcoin.Result, p *problems) bool {
	if err := checkResult(req, res); err != nil {
		p.add("engine request %d (%s): %v", i, describe(req), err)
		return false
	}
	want, pinned := w.digests[i]
	if !pinned {
		return true
	}
	b, err := json.Marshal(res)
	if err != nil {
		p.add("engine request %d: %v", i, err)
		return false
	}
	got, err := resultSHA(b)
	if err != nil || got != want {
		p.add("engine request %d (%s): digest %s, want %s (%v)", i, describe(req), got, want, err)
		return false
	}
	return true
}

// op is one untraced request: a plain Execute.
func (w *engineSweep) op(p *problems) Op {
	return func(ctx context.Context, i int, due time.Time) (string, bool, time.Time) {
		it := w.item(i)
		res, err := blitzcoin.Execute(ctx, it.Req)
		done := time.Now()
		if err != nil {
			p.add("engine request %d (%s): %v", i, describe(it.Req), err)
			return it.Class, false, done
		}
		return it.Class, w.verify(i, it.Req, res, p), done
	}
}

// tracedOp is the same request with a span around each layer the
// benchmark can call on its own: an exchange sweep runs as per-trial
// shards on the sweep pool and is merged, encoded and hashed through the
// root API; an SoC run is one Execute.
func (w *engineSweep) tracedOp(tr *Tracer, p *problems) Op {
	return func(ctx context.Context, i int, due time.Time) (string, bool, time.Time) {
		it := w.item(i)
		var res *blitzcoin.Result
		var err error
		root := tr.BeginAt(i, 0, "loadgen", "request", due)
		if it.Req.SoC != nil {
			tr.Do(i, root, "soc", it.Req.SoC.SoC, func(int) { res, err = blitzcoin.Execute(ctx, it.Req) })
		} else {
			res, err = tracedExchange(ctx, tr, i, root, it.Req)
		}
		tr.End(root)
		done := time.Now()
		if err != nil {
			p.add("engine request %d (%s): %v", i, describe(it.Req), err)
			return it.Class, false, done
		}
		return it.Class, w.verify(i, it.Req, res, p), done
	}
}

// tracedExchange computes an exchange sweep layer by layer: decode and
// hash, one shard per trial on the sweep pool, merge, encode and digest.
func tracedExchange(ctx context.Context, tr *Tracer, req, parent int, r blitzcoin.Request) (*blitzcoin.Result, error) {
	var err error
	tr.Do(req, parent, "blitzcoin", "decode_hash", func(int) {
		n := r.Normalized()
		if err = n.Validate(); err == nil {
			_, err = n.CanonicalHash()
		}
	})
	if err != nil {
		return nil, err
	}
	shards := make([]*blitzcoin.ShardResult, r.Trials)
	errs := make([]error, r.Trials)
	tr.Do(req, parent, "sweep", "map", func(sw int) {
		sweep.Map(ctx, r.Trials, 0, func(t int) struct{} {
			tr.Do(req, sw, "coin", fmt.Sprintf("d%d", r.Exchange.Dim), func(int) {
				shards[t], errs[t] = blitzcoin.ExecuteShard(ctx, r, t, t+1)
			})
			return struct{}{}
		})
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	var res *blitzcoin.Result
	tr.Do(req, parent, "blitzcoin", "merge_shards", func(int) { res, err = blitzcoin.MergeShards(r, shards) })
	if err != nil {
		return nil, err
	}
	var b []byte
	tr.Do(req, parent, "blitzcoin", "result_encode", func(int) { b, err = json.Marshal(res) })
	if err != nil {
		return nil, err
	}
	tr.Do(req, parent, "blitzcoin", "result_sha", func(int) { _, err = blitzcoin.CanonicalResultSHA(b) })
	return res, err
}

// engineE2E turns one phase's samples into the end-to-end metrics. The
// latencies are percentiles over blocks of the block's mean latency per
// class: every block holds the same mix, so a percentile never falls on
// the edge between two request sizes.
func engineE2E(ss []Sample, rep *report) {
	for _, c := range []struct{ prefix, class string }{{"primary_ms", classExchange}, {"secondary_ms", classSoC}} {
		bm := blockMeansMs(ss, engineBlockLen, c.class)
		rep.metric(c.prefix+"_p50", quantile(bm, 0.5).Value)
		rep.info(c.prefix+"_p50", quantile(bm, 0.5).Value, "ms", len(bm))
		rep.info(c.prefix+"_p75", quantile(bm, 0.75).Value, "ms", len(bm))
	}
	ex, soc := latenciesMs(ss, classExchange), latenciesMs(ss, classSoC)
	rep.info("exchange_ms_p50", quantile(ex, 0.5).Value, "ms", len(ex))
	rep.info("soc_ms_p50", quantile(soc, 0.5).Value, "ms", len(soc))
	rep.metric("throughput_rps", blockRate(ss, engineBlockLen))
	rep.info("exchange_trials_per_s", float64(len(ex)*engineTrials)/(sumOf(ex)/1e3), "1/s", len(ex))
	rep.info("soc_runs_per_s", float64(len(soc))/(sumOf(soc)/1e3), "1/s", len(soc))
}

func runEngine(cfg runConfig, rep *report) error {
	w, err := newEngineSweep(cfg.Seed)
	if err != nil {
		return err
	}
	if err := rep.setup(func(bool) error { return w.setup() }); err != nil {
		return err
	}
	var p problems
	defer rep.absorb(&p)
	if !cfg.Trace {
		heap := startHeapSampler()
		ss := closedLoop(bg, cfg.phase(1), engineBlockLen, 0, w.op(&p))
		rep.metric("peak_heap_mb", heap.stop())
		rep.tally.Merge(tally(ss))
		engineE2E(ss, rep)
		return nil
	}
	// Traced run: an untraced phase, then the same requests again traced,
	// then the layer probes.
	plain := closedLoop(bg, cfg.phase(0.35), engineBlockLen, 0, w.op(&p))
	tr := newTracer()
	traced := closedLoop(bg, cfg.phase(0.35), engineBlockLen, 0, w.tracedOp(tr, &p))
	rep.tally.Merge(tally(plain))
	rep.tally.Merge(tally(traced))
	rep.overhead(latenciesMs(plain, classExchange), latenciesMs(traced, classExchange),
		latenciesMs(plain, classSoC), latenciesMs(traced, classSoC))
	var reqs []blitzcoin.Request
	for i := 0; i < engineBlockLen; i++ {
		reqs = append(reqs, w.item(i).Req)
	}
	probeCommon(tr, reqs, rep, &p)
	probeSoC(reqs, rep, &p)
	rep.spans(tr, cfg, traced)
	return nil
}
