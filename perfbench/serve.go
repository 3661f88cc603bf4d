package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"blitzcoin"
	"blitzcoin/internal/ledger"
	"blitzcoin/internal/server"
	"blitzcoin/internal/store"
	"blitzcoin/internal/tenant"
)

// Serve-mixed traffic settings.
const (
	serveRate  = 200.0 // requests per second of the fixed-rate phase
	serveConns = 2     // client connections
	sloLimitMs = 10.0  // p90 latency limit of the rate ladder
)

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// endpoint is a blitzd Server behind a loopback listener.
type endpoint struct {
	srv *server.Server
	hs  *http.Server
	url string
	wg  sync.WaitGroup
}

func listen(srv *server.Server) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String()}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		_ = e.hs.Serve(ln) // always ErrServerClosed once close has run
	}()
	return e, nil
}

// close stops the listener, its connections and the server's pool, and
// waits for the serve loop to return.
func (e *endpoint) close() {
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx)  // a timeout leaves connections that Close ends
	_ = e.hs.Close()        // nothing is left to fail once Shutdown returned
	_ = e.srv.Shutdown(ctx) // a sweep still running at the deadline ends with the run
	e.wg.Wait()
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends a request to /v1/sweep and decodes the envelope. done is when
// the response body had been read.
func post(ctx context.Context, c *http.Client, url, key string, body []byte) (server.Response, time.Time, error) {
	var env server.Response
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return env, time.Time{}, err
	}
	if key != "" {
		hreq.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := c.Do(hreq)
	if err != nil {
		return env, time.Now(), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil {
		return env, done, err
	}
	if resp.StatusCode != http.StatusOK {
		return env, done, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return env, done, json.Unmarshal(b, &env)
}

// tenantKeys are the API keys of the two tenants of the key file.
var tenantKeys = []string{"perfbench-alpha-key", "perfbench-beta-key"}

// writeKeyFile writes a two-tenant key file whose limits the workload
// never reaches.
func writeKeyFile(path string) error {
	kf := tenant.KeyFile{Tenants: []tenant.Config{
		{Name: "alpha", Key: tenantKeys[0], RatePerSec: 1e6, Burst: 1e6},
		{Name: "beta", Key: tenantKeys[1], RatePerSec: 1e6, Burst: 1e6},
	}}
	b, err := json.Marshal(kf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o600)
}

// serveStack is one booted blitzd with its full serving stack.
type serveStack struct {
	ep    *endpoint
	store *store.Store
	led   *ledger.Ledger
}

func (s *serveStack) close() {
	s.ep.close()
	s.store.Close()
	_ = s.led.Close() // the ledger is scratch state of this run
}

// bootServe starts a blitzd with a key file, a disk store, a ledger and a
// small memory cache in dir.
func bootServe(dir string) (*serveStack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	keyFile := filepath.Join(dir, "keys.json")
	if err := writeKeyFile(keyFile); err != nil {
		return nil, err
	}
	reg, err := tenant.Load(keyFile)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(dir, "store"), blitzcoin.EngineVersion, 0, quietLog)
	if err != nil {
		return nil, err
	}
	led, err := ledger.Open(filepath.Join(dir, "ledger.log"), 0)
	if err != nil {
		st.Close()
		return nil, err
	}
	srv := server.New(server.Config{
		Workers:      2,
		CacheEntries: serveCacheEntries,
		Logger:       quietLog,
		Tenants:      reg,
		Store:        st,
		Ledger:       led,
	})
	ep, err := listen(srv)
	if err != nil {
		st.Close()
		_ = led.Close() // already returning the listen error
		return nil, err
	}
	return &serveStack{ep: ep, store: st, led: led}, nil
}

// serveMixed is the serve-mixed workload's state.
type serveMixed struct {
	cfg    runConfig
	keys   serveKeys
	bodies map[string][]byte // request body by canonical hash
	want   map[string]string // expected result digest by canonical hash
	stack  *serveStack
	client *http.Client

	mu      sync.Mutex
	seen    map[string][32]byte // raw result digest already verified, by hash
	fresh   []freshResult       // miss results, verified after the phase
	elapsed map[string][]float64
	coal    int
}

type freshResult struct {
	req blitzcoin.Request
	raw []byte
}

// prepare computes the expected digest of every key in-process, before
// anything is timed.
func (w *serveMixed) prepare() error {
	w.bodies, w.want = map[string][]byte{}, map[string]string{}
	for _, req := range append(append([]blitzcoin.Request(nil), w.keys.Hot...), w.keys.Cold...) {
		h, err := req.CanonicalHash()
		if err != nil {
			return err
		}
		if w.bodies[h], err = json.Marshal(req); err != nil {
			return err
		}
		if w.want[h], err = localSHA(req); err != nil {
			return err
		}
	}
	return nil
}

// boot starts the stack and fills its store with every key through the
// server, then touches the hot set so it sits in the memory cache.
func (w *serveMixed) boot(dir string) error {
	st, err := bootServe(dir)
	if err != nil {
		return err
	}
	w.stack = st
	all := append(append([]blitzcoin.Request(nil), w.keys.Cold...), w.keys.Hot...)
	errs := make(chan error, serveConns)
	for c := 0; c < serveConns; c++ {
		go func() {
			var err error
			for i := c; i < len(all) && err == nil; i += serveConns {
				err = w.fill(all[i], i)
			}
			errs <- err
		}()
	}
	for c := 0; c < serveConns; c++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return err
	}
	for i, req := range w.keys.Hot {
		if err := w.fill(req, i); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveMixed) fill(req blitzcoin.Request, i int) error {
	h, _ := req.CanonicalHash() // hashed without error in prepare
	env, _, err := post(bg, w.client, w.stack.ep.url, tenantKeys[i%2], w.bodies[h])
	if err != nil {
		return fmt.Errorf("filling %s: %w", describe(req), err)
	}
	return w.verifyKnown(h, env.Result)
}

// verifyKnown checks a result for a key of the key space: the first time
// canonically against the in-process digest, afterwards by its raw bytes,
// which every hit on that key serves unchanged.
func (w *serveMixed) verifyKnown(h string, raw []byte) error {
	sum := sha256.Sum256(raw)
	w.mu.Lock()
	prev, ok := w.seen[h]
	w.mu.Unlock()
	if ok {
		if prev != sum {
			return errors.New("hit served different bytes than before")
		}
		return nil
	}
	got, err := resultSHA(raw)
	if err != nil {
		return err
	}
	if got != w.want[h] {
		return fmt.Errorf("result digest %s, want %s", got, w.want[h])
	}
	w.mu.Lock()
	w.seen[h] = sum
	w.mu.Unlock()
	return nil
}

// op sends request i of the stream. tr, when set, records its spans.
func (w *serveMixed) op(tr *Tracer, p *problems) Op {
	return w.opOf(tr, p, func(i int) serveIntent { return serveItem(w.cfg.Seed, w.keys, i) })
}

// hitOp sends only keys of the key space, each of which must hit.
func (w *serveMixed) hitOp(p *problems) Op {
	return w.opOf(nil, p, func(i int) serveIntent { return hitItem(w.cfg.Seed, w.keys, i) })
}

func (w *serveMixed) opOf(tr *Tracer, p *problems, intent func(int) serveIntent) Op {
	return func(ctx context.Context, i int, due time.Time) (string, bool, time.Time) {
		in := intent(i)
		root := tr.BeginAt(i, 0, "loadgen", "request", due)
		h, err := in.Req.CanonicalHash()
		body := w.bodies[h]
		if in.Fresh {
			body, err = json.Marshal(in.Req)
		}
		if err != nil {
			p.add("serve request %d: %v", i, err)
			return classMiss, false, time.Now()
		}
		sp := tr.Begin(i, root, "server", "sweep")
		env, done, err := post(ctx, w.client, w.stack.ep.url, tenantKeys[in.Tenant], body)
		tr.End(sp)
		tr.End(root)
		if err != nil {
			p.add("serve request %d (%s): %v", i, describe(in.Req), err)
			return classMiss, false, done
		}
		class := classMiss
		switch env.Tier {
		case "memory":
			class = classMemory
		case "disk":
			class = classDisk
		}
		w.mu.Lock()
		w.elapsed[class] = append(w.elapsed[class], float64(env.ElapsedMicros))
		if env.Coalesced {
			w.coal++
		}
		if in.Fresh {
			w.fresh = append(w.fresh, freshResult{in.Req, env.Result})
		}
		w.mu.Unlock()
		switch {
		case in.Fresh && class != classMiss:
			p.add("serve request %d: fresh key served from %s", i, env.Tier)
			return class, false, done
		case in.Fresh:
			return class, true, done
		}
		if err := w.verifyKnown(h, env.Result); err != nil {
			p.add("serve request %d (%s): %v", i, describe(in.Req), err)
			return class, false, done
		}
		return class, true, done
	}
}

// verifyFresh checks every miss result against its in-process digest,
// after the timed phases. It returns how many failed.
func (w *serveMixed) verifyFresh(p *problems) int {
	failed := 0
	for _, f := range w.fresh {
		want, err := localSHA(f.req)
		got, err2 := resultSHA(f.raw)
		if err != nil || err2 != nil || got != want {
			p.add("serve miss %s: digest %s, want %s (%v, %v)", describe(f.req), got, want, err, err2)
			failed++
		}
	}
	w.fresh = nil
	return failed
}

// ladderStep is one fixed-rate step of the rate ladder.
type ladderStep struct {
	rate, p90 float64
	ok        bool
}

// ladderRates are the rates the ladder adds above the fixed-rate phase,
// in requests per second.
var ladderRates = []float64{800, 1600, 3200}

// judge decides whether a fixed-rate step met the latency limit: p90 at
// most sloLimitMs, no failure, and no backlog (the last fifth of the step
// sent at most sloLimitMs late).
func judge(rate float64, ss []Sample) ladderStep {
	p90 := quantile(latenciesMs(ss, ""), 0.9).Value
	backlog := median(lagsMs(ss[len(ss)*4/5:]))
	return ladderStep{rate, p90, p90 <= sloLimitMs && backlog <= sloLimitMs && tally(ss).Failed == 0}
}

// ladder takes a phase at serveRate as its first step and runs the
// ladder rates in turn until one misses the latency limit. slo_rps is
// the highest rate that met it, interpolated on p90 towards the first
// that did not.
func (w *serveMixed) ladder(fixed []Sample, dur time.Duration, first int, p *problems) (float64, []ladderStep, []Sample) {
	steps := []ladderStep{judge(serveRate, fixed)}
	var all []Sample
	for _, rate := range ladderRates {
		if !steps[len(steps)-1].ok {
			break
		}
		ss := openLoop(bg, rate, dur, serveConns, first+len(all), w.op(nil, p))
		all = append(all, ss...)
		steps = append(steps, judge(rate, ss))
	}
	n := len(steps)
	switch {
	case !steps[0].ok:
		return steps[0].rate * sloLimitMs / steps[0].p90, steps, all
	case steps[n-1].ok:
		return steps[n-1].rate, steps, all
	}
	lo, hi := steps[n-2], steps[n-1]
	f := min(max((sloLimitMs-lo.p90)/(hi.p90-lo.p90), 0), 1)
	return lo.rate * math.Pow(hi.rate/lo.rate, f), steps, all
}

// serveE2E turns one fixed-rate phase into the end-to-end latency metrics.
func serveE2E(ss []Sample, rep *report) {
	rep.latency("primary_ms", latenciesMs(ss, classMemory))
	rep.latency("secondary_ms", latenciesMs(ss, classDisk))
	xs := latenciesMs(ss, classMiss)
	rep.info("miss_ms_p50", quantile(xs, 0.5).Value, "ms", len(xs))
	rep.info("miss_ms_p90", quantile(xs, 0.9).Value, "ms", len(xs))
	lag := lagsMs(ss)
	rep.info("loadgen.lag_ms_p50", quantile(lag, 0.5).Value, "ms", len(lag))
	rep.info("loadgen.lag_ms_p90", quantile(lag, 0.9).Value, "ms", len(lag))
}

func runServe(cfg runConfig, rep *report) error {
	w := &serveMixed{cfg: cfg, keys: newServeKeys(cfg.Seed), client: newClient(serveConns),
		seen: map[string][32]byte{}, elapsed: map[string][]float64{}}
	defer w.client.CloseIdleConnections()
	if err := w.prepare(); err != nil {
		return err
	}
	n := 0
	err := rep.setup(func(last bool) error {
		n++
		w.seen = map[string][32]byte{}
		if err := w.boot(filepath.Join(cfg.WorkDir, fmt.Sprintf("stack%d", n))); err != nil {
			return err
		}
		if !last {
			w.stack.close()
		}
		return nil
	})
	if w.stack != nil {
		defer w.stack.close()
	}
	if err != nil {
		return err
	}
	var p problems
	defer rep.absorb(&p)

	if !cfg.Trace {
		// An untimed warm-up at the fixed rate, the fixed-rate phase, then
		// the closed-loop capacity of the hit path on both connections.
		warm := openLoop(bg, serveRate, cfg.phase(0.08), serveConns, 0, w.op(nil, &p))
		// The heap is sampled in the fixed-rate phase only: the capacity
		// phase's load follows the host's speed, and so would its heap.
		heap := startHeapSampler()
		ss := openLoop(bg, serveRate, cfg.phase(0.57), serveConns, len(warm), w.op(nil, &p))
		rep.metric("peak_heap_mb", heap.stop())
		capacity := saturate(bg, cfg.phase(0.35), serveConns, len(warm)+len(ss), w.hitOp(&p))
		for _, phase := range [][]Sample{warm, ss, capacity} {
			rep.tally.Merge(tally(phase))
		}
		rep.tally.Failed += w.verifyFresh(&p)
		serveE2E(ss, rep)
		rep.metric("throughput_rps", windowRate(capacity, 250*time.Millisecond))
		return nil
	}

	plain := openLoop(bg, serveRate, cfg.phase(0.35), serveConns, 0, w.op(nil, &p))
	tr := newTracer()
	traced := openLoop(bg, serveRate, cfg.phase(0.35), serveConns, len(plain), w.op(tr, &p))
	slo, steps, ladder := w.ladder(plain, cfg.phase(0.04), len(plain)+len(traced), &p)
	for _, phase := range [][]Sample{plain, traced, ladder} {
		rep.tally.Merge(tally(phase))
	}
	rep.tally.Failed += w.verifyFresh(&p)
	rep.info("slo_rps", slo, "1/s", len(steps))
	for _, s := range steps {
		rep.infos = append(rep.infos, fmt.Sprintf("  ladder %8.1f req/s  p90 %8.3f ms  meets %4.0f ms: %v", s.rate, s.p90, sloLimitMs, s.ok))
	}
	rep.overhead(latenciesMs(plain, classMemory), latenciesMs(traced, classMemory),
		latenciesMs(plain, classDisk), latenciesMs(traced, classDisk))
	total := float64(len(plain) + len(traced))
	rep.metric("server.mem_hit_ratio", float64(len(latenciesMs(append(plain, traced...), classMemory)))/total)
	rep.metric("server.disk_hit_ratio", float64(len(latenciesMs(append(plain, traced...), classDisk)))/total)
	rep.metric("server.coalesced", float64(w.coal))
	for c, tier := range map[string]string{classMemory: "memory", classDisk: "disk", classMiss: "miss"} {
		rep.metric("server.elapsed_us_p50."+tier, median(w.elapsed[c]))
	}
	st := w.stack.store.Stats()
	rep.metric("store.hits", float64(st.Hits))
	rep.metric("store.misses", float64(st.Misses))
	rep.metric("store.evictions", float64(st.Evictions))

	var sample []blitzcoin.Request
	for i := 0; len(sample) < 4; i++ {
		if in := serveItem(cfg.Seed, w.keys, i); in.Fresh {
			sample = append(sample, in.Req)
		}
	}
	probeCommon(tr, sample, rep, &p)
	if err := probeServing(filepath.Join(cfg.WorkDir, "probe"), w.keys, rep); err != nil {
		return err
	}
	rep.spans(tr, cfg, traced)
	return nil
}

// probeServing times the serving layers' own calls on the workload's keys
// and results, on instances of their own: tenant authentication and rate
// limiting, store writes and reads, and ledger appends.
func probeServing(dir string, keys serveKeys, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	keyFile := filepath.Join(dir, "keys.json")
	if err := writeKeyFile(keyFile); err != nil {
		return err
	}
	reg, err := tenant.Load(keyFile)
	if err != nil {
		return err
	}
	var t *tenant.Tenant
	rep.metric("tenant.authenticate_us", timePerOp(20000, func(i int) { t, _ = reg.Authenticate(tenantKeys[i%2]) }))
	var limited error
	rep.metric("tenant.allow_request_us", timePerOp(20000, func(int) {
		if _, err := t.AllowRequest(); err != nil {
			limited = err
		}
	}))
	if limited != nil {
		return fmt.Errorf("tenant probe: %w", limited)
	}

	all := append(append([]blitzcoin.Request(nil), keys.Hot...), keys.Cold...)
	var hashes []string
	var results [][]byte
	for _, req := range all[:32] {
		h, err := req.CanonicalHash()
		if err != nil {
			return err
		}
		res, err := blitzcoin.Execute(bg, req)
		if err != nil {
			return err
		}
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		hashes, results = append(hashes, h), append(results, b)
	}
	st, err := store.Open(filepath.Join(dir, "store"), blitzcoin.EngineVersion, 0, quietLog)
	if err != nil {
		return err
	}
	defer st.Close()
	var putErr error
	rep.metric("store.put_us", timePerOp(len(hashes), func(i int) {
		if err := st.Put(hashes[i], "exchange", results[i]); err != nil {
			putErr = err
		}
	}))
	if putErr != nil {
		return putErr
	}
	rep.metric("store.get_us", timePerOp(4*len(hashes), func(i int) { st.Get(hashes[i%len(hashes)]) }))

	led, err := ledger.Open(filepath.Join(dir, "ledger.log"), 0)
	if err != nil {
		return err
	}
	defer led.Close()
	var appendErr error
	rep.metric("ledger.append_us", timePerOp(len(hashes), func(i int) {
		if _, _, err := led.Append(hashes[i], blitzcoin.EngineVersion, fmt.Sprintf("%064x", i)); err != nil {
			appendErr = err
		}
	}))
	return appendErr
}
