package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"blitzcoin"
	"blitzcoin/internal/cluster"
	"blitzcoin/internal/server"
	"blitzcoin/internal/trace"
)

// clusterStack is a coordinator-mode blitzd fronting two worker blitzds,
// all on loopback.
type clusterStack struct {
	workers []*endpoint
	coord   *cluster.Coordinator
	front   *endpoint
	bus     *trace.Bus
}

func (c *clusterStack) close() {
	c.front.close()
	c.coord.Close()
	for _, w := range c.workers {
		w.close()
	}
}

// bootCluster starts two workers and a coordinator, waits until the
// coordinator reports ready, and sends one request of each kind through
// it so connections and lazy state exist before timing.
func bootCluster(client *http.Client) (*clusterStack, error) {
	c := &clusterStack{bus: trace.NewBus()}
	var urls []string
	for i := 0; i < 2; i++ {
		ep, err := listen(server.New(server.Config{Logger: quietLog}))
		if err != nil {
			c.closePartial()
			return nil, err
		}
		c.workers = append(c.workers, ep)
		urls = append(urls, ep.url)
	}
	coord, err := cluster.New(cluster.Config{
		Options: blitzcoin.ClusterOptions{Workers: urls},
		Logger:  quietLog,
		Bus:     c.bus,
	})
	if err != nil {
		c.closePartial()
		return nil, err
	}
	c.coord = coord
	front, err := listen(server.New(server.Config{Logger: quietLog, Run: coord.Run, Cluster: coord, Bus: c.bus}))
	if err != nil {
		c.closePartial()
		return nil, err
	}
	c.front = front
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(front.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			c.close()
			return nil, fmt.Errorf("cluster not ready after 30s (%v)", err)
		}
		time.Sleep(time.Millisecond)
	}
	for _, req := range []blitzcoin.Request{exchangeRequest(clusterDim, clusterTrials, 1), fig7Request(1)} {
		body, err := json.Marshal(req)
		if err == nil {
			_, _, err = post(bg, client, front.url, "", body)
		}
		if err != nil {
			c.close()
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
	}
	return c, nil
}

func (c *clusterStack) closePartial() {
	if c.coord != nil {
		c.coord.Close()
	}
	for _, w := range c.workers {
		w.close()
	}
}

// watchShards records the coordinator's shard events until the returned
// function is called, which returns how many shards were dispatched and
// the service times of those that succeeded.
func (c *clusterStack) watchShards() func() (dispatched int, serviceMs []float64) {
	// Sized so a run's shard events (a few thousand) never hit the
	// drop-oldest eviction.
	sub := c.bus.Subscribe("", 1<<16)
	done := make(chan struct{})
	var dispatched int
	var service []float64
	go func() {
		defer close(done)
		for e := range sub.Events() {
			switch {
			case e.Type == trace.EventShardDispatch:
				dispatched++
			case e.Type == trace.EventShardDone && e.OK:
				service = append(service, e.Value*1e3)
			}
		}
	}()
	return func() (int, []float64) {
		sub.Close()
		<-done
		return dispatched, service
	}
}

// clusterSweep is the cluster-sweep workload's state.
type clusterSweep struct {
	cfg    runConfig
	stack  *clusterStack
	client *http.Client

	mu      sync.Mutex
	results map[int][]byte // raw result by request index, verified after the phase
	shards  int            // shards merged into results, from the result meta
	elapsed []float64      // coordinator envelope elapsed, microseconds
}

func (w *clusterSweep) op(tr *Tracer, p *problems) Op {
	return func(ctx context.Context, i int, due time.Time) (string, bool, time.Time) {
		it := clusterItem(w.cfg.Seed, i)
		body, err := json.Marshal(it.Req)
		if err != nil {
			p.add("cluster request %d: %v", i, err)
			return it.Class, false, time.Now()
		}
		root := tr.BeginAt(i, 0, "loadgen", "request", due)
		sp := tr.Begin(i, root, "cluster", "sweep")
		env, done, err := post(ctx, w.client, w.stack.front.url, "", body)
		tr.End(sp)
		tr.End(root)
		if err != nil {
			p.add("cluster request %d (%s): %v", i, describe(it.Req), err)
			return it.Class, false, done
		}
		if env.Cached {
			p.add("cluster request %d (%s): served from cache, want a clustered miss", i, describe(it.Req))
			return it.Class, false, done
		}
		var meta struct {
			Exchange, Figure *struct {
				Meta blitzcoin.ResultMeta `json:"meta"`
			}
		}
		if err := json.Unmarshal(env.Result, &meta); err != nil {
			p.add("cluster request %d: %v", i, err)
			return it.Class, false, done
		}
		w.mu.Lock()
		w.results[i] = env.Result
		w.elapsed = append(w.elapsed, float64(env.ElapsedMicros))
		for _, m := range []*struct {
			Meta blitzcoin.ResultMeta `json:"meta"`
		}{meta.Exchange, meta.Figure} {
			if m != nil {
				w.shards += m.Meta.Shards
			}
		}
		w.mu.Unlock()
		return it.Class, true, done
	}
}

// verify checks every clustered result against the local Execute of the
// same request, after the timed phases, and returns the failures and the
// in-process time the local runs took.
func (w *clusterSweep) verify(ss []Sample, p *problems) (failed int, local time.Duration) {
	for _, s := range ss {
		raw, ok := w.results[s.Index]
		if !ok {
			continue
		}
		req := clusterItem(w.cfg.Seed, s.Index).Req
		start := time.Now()
		res, err := blitzcoin.Execute(bg, req)
		local += time.Since(start)
		if err == nil {
			err = checkResult(req, res)
		}
		var want, got string
		if err == nil {
			var b []byte
			if b, err = json.Marshal(res); err == nil {
				want, err = resultSHA(b)
			}
		}
		if err == nil {
			got, err = resultSHA(raw)
		}
		if err != nil || got != want {
			p.add("cluster request %d (%s): digest %s, local %s (%v)", s.Index, describe(req), got, want, err)
			failed++
		}
	}
	return failed, local
}

// clusterE2E turns one phase's samples into the end-to-end metrics.
func clusterE2E(seed uint64, ss []Sample, rep *report) {
	ex, fig := latenciesMs(ss, classExchange), latenciesMs(ss, classFigure)
	rep.latency("primary_ms", ex)
	rep.latency("secondary_ms", fig)
	all := latenciesMs(ss, "")
	rep.metric("throughput_rps", blockRate(ss, clusterBlockLen))
	rep.info("cluster_sweep_ms_p50", quantile(all, 0.5).Value, "ms", len(all))
	rep.info("cluster_sweep_ms_p90", quantile(all, 0.9).Value, "ms", len(all))
	units := 0
	for _, s := range ss {
		u, _ := clusterItem(seed, s.Index).Req.ShardUnits() // every generated request is valid
		units += u
	}
	rep.info("cluster_trials_per_s", float64(units)/(sumOf(all)/1e3), "1/s", len(all))
}

func runCluster(cfg runConfig, rep *report) error {
	w := &clusterSweep{cfg: cfg, client: newClient(2), results: map[int][]byte{}}
	defer w.client.CloseIdleConnections()
	err := rep.setup(func(last bool) error {
		st, err := bootCluster(w.client)
		if err != nil {
			return err
		}
		if last {
			w.stack = st
		} else {
			st.close()
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer w.stack.close()
	var p problems
	defer rep.absorb(&p)

	if !cfg.Trace {
		heap := startHeapSampler()
		watch := w.stack.watchShards()
		ss := closedLoop(bg, cfg.phase(1), clusterBlockLen, 0, w.op(nil, &p))
		dispatched, service := watch()
		rep.metric("peak_heap_mb", heap.stop())
		failed, _ := w.verify(ss, &p)
		rep.tally.Merge(tally(ss))
		rep.tally.Failed += failed
		clusterE2E(cfg.Seed, ss, rep)
		rep.info("cluster.useful_shard_ratio", float64(w.shards)/float64(max(dispatched, 1)), "ratio", dispatched)
		rep.info("cluster.shard_service_ms_p50", median(service), "ms", len(service))
		return nil
	}

	plain := closedLoop(bg, cfg.phase(0.35), clusterBlockLen, 0, w.op(nil, &p))
	tr := newTracer()
	w.shards = 0
	watch := w.stack.watchShards()
	traced := closedLoop(bg, cfg.phase(0.35), clusterBlockLen, len(plain), w.op(tr, &p))
	dispatched, service := watch()
	rep.tally.Merge(tally(plain))
	rep.tally.Merge(tally(traced))
	f1, _ := w.verify(plain, &p)
	f2, local := w.verify(traced, &p)
	rep.tally.Failed += f1 + f2
	rep.overhead(latenciesMs(plain, classExchange), latenciesMs(traced, classExchange),
		latenciesMs(plain, classFigure), latenciesMs(traced, classFigure))
	rep.metric("cluster.shard_service_ms_p50", median(service))
	if dispatched > 0 {
		rep.metric("cluster.useful_shard_ratio", float64(w.shards)/float64(dispatched))
	}
	if local > 0 {
		rep.metric("cluster.overhead_ratio", sumOf(latenciesMs(traced, ""))/1e3/local.Seconds())
	}
	rep.metric("server.elapsed_us_p50.miss", median(w.elapsed))

	var sample []blitzcoin.Request
	for _, it := range clusterBlock(cfg.Seed, 0) {
		sample = append(sample, it.Req)
	}
	probeCommon(tr, sample, rep, &p)
	rep.spans(tr, cfg, traced)
	return nil
}
