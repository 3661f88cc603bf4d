package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"blitzcoin"
	"blitzcoin/internal/coin"
	"blitzcoin/internal/mesh"
	"blitzcoin/internal/noc"
	"blitzcoin/internal/rng"
	"blitzcoin/internal/sim"
	"blitzcoin/internal/sweep"
	"blitzcoin/internal/trace"
)

// The layer probes call one layer's public functions directly, on inputs
// taken from the workload, and time them or read the layer's own
// counters. Their inputs are a fixed prefix of the workload stream, so
// the simulated counts repeat exactly for a seed.

// timePerOp runs fn n times and returns the mean time per call in
// microseconds.
func timePerOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / 1e3 / float64(n)
}

// probeCommon runs the probes every workload shares: the root API's
// request and result handling, the exchange engine layers on the
// workload's exchange sweeps, and the trace bus.
func probeCommon(tr *Tracer, reqs []blitzcoin.Request, rep *report, p *problems) {
	probeRootAPI(reqs, rep, p)
	var ex []blitzcoin.Request
	for _, r := range reqs {
		if r.Exchange != nil {
			ex = append(ex, r)
		}
	}
	probeExchange(tr, ex, rep, p)
	probeNoC(ex, rep)
	probeTraceBus(rep)
}

// probeRootAPI times request decoding and hashing, result encoding and
// digesting, and shard merging, and checks that a merge of four shards
// equals the local result.
func probeRootAPI(reqs []blitzcoin.Request, rep *report, p *problems) {
	const reps = 20
	var decode, encode, digest, merge []float64
	for _, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			p.add("probe: encoding request: %v", err)
			return
		}
		res, err := blitzcoin.Execute(bg, req)
		if err != nil {
			p.add("probe: %s: %v", describe(req), err)
			return
		}
		b, err := json.Marshal(res)
		if err != nil {
			p.add("probe: encoding result: %v", err)
			return
		}
		decode = append(decode, timePerOp(reps, func(int) {
			var r blitzcoin.Request
			if err := json.Unmarshal(body, &r); err != nil {
				p.add("probe: decoding request: %v", err)
				return
			}
			n := r.Normalized()
			if err := n.Validate(); err != nil {
				p.add("probe: %v", err)
			}
			if _, err := n.CanonicalHash(); err != nil {
				p.add("probe: %v", err)
			}
		}))
		encode = append(encode, timePerOp(reps, func(int) {
			if _, err := json.Marshal(res); err != nil {
				p.add("probe: encoding result: %v", err)
			}
		}))
		digest = append(digest, timePerOp(reps, func(int) {
			if _, err := blitzcoin.CanonicalResultSHA(b); err != nil {
				p.add("probe: %v", err)
			}
		}))
		if us, ok := probeMerge(req, b, p); ok {
			merge = append(merge, us)
		}
	}
	rep.metric("blitzcoin.decode_hash_us", median(decode))
	rep.metric("blitzcoin.result_encode_us", median(encode))
	rep.metric("blitzcoin.result_sha_us", median(digest))
	if len(merge) > 0 {
		rep.metric("blitzcoin.merge_shards_us", median(merge))
	}
}

// probeMerge splits a shardable request into four shards, times
// MergeShards over them and checks the merge against the local result.
func probeMerge(req blitzcoin.Request, local []byte, p *problems) (float64, bool) {
	units, err := req.ShardUnits()
	if err != nil || units < 4 {
		return 0, false
	}
	var shards []*blitzcoin.ShardResult
	for k := 0; k < 4; k++ {
		s, err := blitzcoin.ExecuteShard(bg, req, k*units/4, (k+1)*units/4)
		if err != nil {
			p.add("probe: shard of %s: %v", describe(req), err)
			return 0, false
		}
		shards = append(shards, s)
	}
	var merged *blitzcoin.Result
	us := timePerOp(20, func(int) { merged, err = blitzcoin.MergeShards(req, shards) })
	if err != nil {
		p.add("probe: merging %s: %v", describe(req), err)
		return 0, false
	}
	b, err := json.Marshal(merged)
	if err != nil {
		p.add("probe: %v", err)
		return 0, false
	}
	got, err1 := resultSHA(b)
	want, err2 := resultSHA(local)
	if err1 != nil || err2 != nil || got != want {
		p.add("probe: merged shards of %s hash %s, local %s", describe(req), got, want)
		return 0, false
	}
	return us, true
}

// trialRun is one exchange trial run directly on the coin emulator.
type trialRun struct {
	res    coin.Result
	events uint64
	net    noc.Stats
}

// runTrial builds and runs the emulator for one trial the way
// SimulateExchange does for the benchmark's exchange set-up (1-way, no
// faults, uniform targets), so the probe can read the kernel and network
// counters the public result does not carry.
func runTrial(o blitzcoin.ExchangeOptions) trialRun {
	o = o.Normalized()
	cfg := coin.Config{
		Mesh:               mesh.Square(o.Dim, o.Torus),
		Mode:               coin.OneWay,
		RefreshInterval:    32,
		DynamicTiming:      o.DynamicTiming,
		RandomPairing:      o.RandomPairing,
		RandomPairingEvery: o.RandomPairingEvery,
		Threshold:          o.Threshold,
		ThermalCap:         o.ThermalCap,
		StopAtConvergence:  true,
	}
	src := rng.New(o.Seed)
	n := cfg.Mesh.N()
	maxes := coin.UniformMaxes(n, o.TargetPerTile)
	a := coin.HotspotAssignment(src, maxes, int64(n)*o.CoinsPerTile)
	e := coin.NewEmulator(cfg, src)
	e.Init(a)
	res := e.Run()
	return trialRun{res: res, events: e.Kernel().Executed(), net: e.NetworkStats()}
}

// probeExchange runs every trial of the given exchange sweeps on the
// sweep pool, one coin span per trial, sums the simulated counts and
// checks each trial against SimulateExchange.
func probeExchange(tr *Tracer, reqs []blitzcoin.Request, rep *report, p *problems) {
	var cycles, exchanges, packets, events, sent, hops, contention, latency, delivered uint64
	var busy time.Duration
	for q, req := range reqs {
		runs := make([]trialRun, req.Trials)
		durs := make([]time.Duration, req.Trials)
		tr.Do(-1-q, 0, "sweep", "probe", func(sw int) {
			sweep.Map(bg, req.Trials, 0, func(t int) struct{} {
				o := *req.Exchange
				o.Seed += uint64(t) * 7919
				tr.Do(-1-q, sw, "coin", fmt.Sprintf("d%d", o.Dim), func(int) {
					start := time.Now()
					runs[t] = runTrial(o)
					durs[t] = time.Since(start)
				})
				return struct{}{}
			})
		})
		for t, r := range runs {
			o := *req.Exchange
			o.Seed += uint64(t) * 7919
			want := blitzcoin.SimulateExchange(o)
			if r.res.ConvergenceCycles != want.ConvergenceCycles || r.res.TotalPackets != want.TotalPackets || r.res.Exchanges != want.Exchanges {
				p.add("probe: emulator replica of %s trial %d diverges from SimulateExchange", describe(req), t)
			}
			cycles += r.res.EndCycles
			exchanges += r.res.Exchanges
			packets += r.res.TotalPackets
			events += r.events
			sent += r.net.Sent
			hops += r.net.TotalHops
			contention += r.net.ContentionCyc
			latency += r.net.TotalLatency
			delivered += r.net.Delivered
			busy += durs[t]
		}
	}
	rep.metric("coin.sim_cycles", float64(cycles))
	rep.metric("coin.exchanges", float64(exchanges))
	rep.metric("coin.packets", float64(packets))
	rep.metric("sim.events", float64(events))
	rep.metric("noc.packets_sent", float64(sent))
	rep.metric("noc.hops", float64(hops))
	rep.metric("noc.contention_cycles", float64(contention))
	if delivered > 0 {
		rep.metric("noc.mean_latency_cycles", float64(latency)/float64(delivered))
	}
	if events > 0 {
		rep.metric("sim.host_ns_per_event", float64(busy)/float64(events))
	}
}

// coinTraffic is one round of PM-plane traffic on a d×d torus: with
// random set, every tile messages a uniformly random partner (the long
// routes of random pairing); otherwise a random neighbour.
func coinTraffic(m mesh.Mesh, r *rand.Rand, random bool) [][2]int {
	var pairs [][2]int
	for i := 0; i < m.N(); i++ {
		nb := m.DistinctNeighbors(i)
		dst := nb[r.Intn(len(nb))]
		if random {
			if dst = r.Intn(m.N()); dst == i {
				dst = nb[0]
			}
		}
		pairs = append(pairs, [2]int{i, dst})
	}
	return pairs
}

// probeNoC times Network.SendCoin plus Kernel.Drain on the dimensions of
// the workload's exchange sweeps. Healthy traffic is neighbour exchanges
// spread over one refresh interval; contended traffic sends every
// packet of a round to a random partner in the same cycle. It also times
// next-hop routing over the contended routes.
func probeNoC(reqs []blitzcoin.Request, rep *report) {
	dims := map[int]bool{}
	for _, r := range reqs {
		dims[r.Exchange.Dim] = true
	}
	if len(dims) == 0 {
		return
	}
	const rounds = 32
	var pkts, hopCalls [2]float64
	var took [2]time.Duration
	var hopT time.Duration
	for d := range dims {
		m := mesh.Square(d, true)
		for mode, contended := range []bool{false, true} {
			r := rand.New(rand.NewSource(int64(d)))
			var k sim.Kernel
			net := noc.New(&k, m, noc.DefaultConfig())
			for i := 0; i < m.N(); i++ {
				net.SetHandler(i, noc.PlanePM, func(*noc.Packet) {})
			}
			var all [][2]int
			start := time.Now()
			for round := 0; round < rounds; round++ {
				pairs := coinTraffic(m, r, contended)
				all = append(all, pairs...)
				base := k.Now()
				for j, pr := range pairs {
					at := base
					if !contended {
						at += sim.Cycles(j * 32 / len(pairs))
					}
					src, dst := pr[0], pr[1]
					k.At(at, func() { net.SendCoin(noc.PlanePM, noc.KindCoinStatus, src, dst, noc.CoinMsg{}) })
				}
				k.Drain()
			}
			took[mode] += time.Since(start)
			pkts[mode] += float64(len(all))
			if !contended {
				continue
			}
			start = time.Now()
			for _, pr := range all {
				for cur := pr[0]; cur != pr[1]; {
					cur, _ = m.NextHopXY(cur, pr[1])
					hopCalls[1]++
				}
			}
			hopT += time.Since(start)
		}
	}
	rep.metric("noc.packets_per_s.healthy", pkts[0]/took[0].Seconds())
	rep.metric("noc.packets_per_s.contended", pkts[1]/took[1].Seconds())
	rep.metric("mesh.next_hop_ns", float64(hopT)/hopCalls[1])
}

// probeTraceBus times publishing a trial event with no subscriber and
// with one draining subscriber.
func probeTraceBus(rep *report) {
	const n = 200_000
	ev := trace.Event{Type: trace.EventTrialDone, Key: "probe", Total: 8, OK: true}
	bus := trace.NewBus()
	rep.metric("trace.publish_ns.0sub", 1e3*timePerOp(n, func(int) { bus.Publish(ev) }))
	sub := bus.Subscribe("", 1024)
	done := make(chan struct{})
	go func() {
		for range sub.Events() {
		}
		close(done)
	}()
	rep.metric("trace.publish_ns.1sub", 1e3*timePerOp(n, func(int) { bus.Publish(ev) }))
	sub.Close()
	<-done
}

// probeSoC runs the SoC requests once each and sums their simulated
// makespans.
func probeSoC(reqs []blitzcoin.Request, rep *report, p *problems) {
	var execUs float64
	for _, req := range reqs {
		if req.SoC == nil {
			continue
		}
		r := blitzcoin.RunSoC(*req.SoC)
		if !r.Completed {
			p.add("probe: %s did not complete", describe(req))
		}
		execUs += r.ExecMicros
	}
	rep.metric("soc.sim_exec_us", execUs)
}
