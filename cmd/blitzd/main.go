// Command blitzd is the batched, cached sweep-serving daemon: it accepts
// blitzcoin.Request JSON over HTTP, schedules the computations on a
// bounded worker pool, coalesces identical in-flight requests into one
// computation, and serves repeats byte-identically from a content-
// addressed result cache keyed on the canonical request hash and engine
// version: one tier stack (internal/store) of a memory LRU bounded by
// -cache-entries/-cache-mb over the optional -store disk tier.
//
// Usage:
//
//	blitzd [-addr :8425] [-workers 2] [-parallel 0]
//	       [-cache-entries 256] [-cache-mb 64]
//	       [-keys keys.json] [-queue-depth 64]
//	       [-store dir] [-store-max-mb 256]
//	       [-addrfile path] [-drain-timeout 30s]
//	       [-ledger path.jsonl] [-ledger-batch 8]
//	       [-coordinator] [-cluster-workers url,url,...]
//	       [-steal-unit n] [-no-speculation]
//	       [-join url -advertise url]
//	       [-chaos '{"fail_slow":[...]}' -chaos-tile 2]
//
// Endpoints: POST /v1/sweep, POST /v1/shard, GET /v1/figures, GET
// /v1/stream (follow a sweep's live events over SSE), GET
// /v1/ledger/proof and /v1/ledger/root (result-ledger audits, with
// -ledger), GET /healthz (liveness), GET /readyz (readiness: drain
// state, queue depth, and — on coordinators — live-worker availability),
// GET /metrics, and /debug/pprof; coordinators additionally serve POST
// /v1/cluster/join and GET /v1/cluster/status. SIGINT/SIGTERM drain
// gracefully: in-flight sweeps finish (up to -drain-timeout), open SSE
// streams follow their in-flight sweep to completion, new work is
// refused with 503 + Retry-After.
//
// Multi-tenant mode: `-keys keys.json` loads a tenant key file (names,
// hashed API keys, token-bucket rates, windowed sweep/byte quotas,
// priority classes). Clients authenticate with `Authorization: Bearer
// <key>` (or X-API-Key); keyless requests are served under the file's
// optional "anonymous" tier or rejected with 401. Rate- or
// quota-exceeded requests get 429 + Retry-After, and per-class
// admission queues (bounded by -queue-depth) dequeue interactive work
// before batch. Without -keys every request maps to one unlimited
// anonymous tenant — the pre-tenancy behavior.
//
// Persistent store: `-store dir` adds the disk tier beneath the memory
// tier: every computed sweep and shard is persisted (content-addressed by
// request hash + engine version, checksummed, written atomically), a
// memory miss consults disk before computing and promotes what it finds,
// and a restarted daemon warms its index from the directory in the
// background — so a populated store serves repeat sweeps (and answers
// /v1/stream for them) byte-identically across restarts with zero
// re-execution. -store-max-mb bounds the directory; least-recently-used
// blobs are garbage-collected past it.
//
// Ledger mode: `-ledger path` appends every computed result (options
// hash, engine version, canonical result SHA) to a Merkle-batched
// append-only JSONL file and stamps the ledger sequence + tree head into
// served results; blitzctl -verify audits any served result against
// GET /v1/ledger/proof.
//
// Cluster mode: `-coordinator` makes this daemon split every /v1/sweep
// across its workers as /v1/shard dispatches and merge the rows
// deterministically (byte-identical to single-node execution). Workers
// are listed statically with -cluster-workers and/or self-register by
// running with `-join http://coordinator -advertise http://self`.
// Shards are pulled from a work queue by idle workers (-steal-unit sets
// the grain), and stragglers are speculatively re-executed on a second
// worker (-spec-percentile/-spec-factor/-spec-min-samples tune the
// threshold; -no-speculation turns it off).
//
// Chaos mode: `-chaos` takes blitzcoin fault-options JSON (the same
// shape the sweep API's "faults" field takes) and injects those faults
// into this daemon's HTTP surface — fail-slow stretch, fail-stop
// connection kills, coordinator-link partitions, and packet drop/dup/
// delay — with the daemon playing tile -chaos-tile against the
// coordinator's tile 0. Observability endpoints stay fault-free.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"blitzcoin"
	"blitzcoin/internal/cluster"
	"blitzcoin/internal/ledger"
	"blitzcoin/internal/server"
	"blitzcoin/internal/store"
	"blitzcoin/internal/sweep"
	"blitzcoin/internal/tenant"
)

func main() {
	addr := flag.String("addr", ":8425", "listen address (use :0 for an ephemeral port)")
	workers := flag.Int("workers", 2, "concurrent sweep computations")
	parallel := flag.Int("parallel", 0, "worker goroutines per sweep (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache-entries", 256, "result-cache entry bound (<0 disables)")
	cacheMB := flag.Int("cache-mb", 64, "result-cache size bound in MiB (<0 disables)")
	addrFile := flag.String("addrfile", "", "write the bound address to this file (for scripts)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight sweeps")
	ledgerPath := flag.String("ledger", "", "append-only results-ledger file (empty disables the ledger)")
	ledgerBatch := flag.Int("ledger-batch", 0, "appends per Merkle seal (0 = default 8)")
	keysPath := flag.String("keys", "", "tenant key file (empty = open access, one unlimited anonymous tenant)")
	queueDepth := flag.Int("queue-depth", 64, "admission-queue bound per priority class")
	storeDir := flag.String("store", "", "disk-backed result-store directory (empty disables the disk tier)")
	storeMaxMB := flag.Int("store-max-mb", 256, "result-store size bound in MiB (<=0 disables the bound)")

	coordinator := flag.Bool("coordinator", false, "serve sweeps by sharding them across cluster workers")
	clusterWorkers := flag.String("cluster-workers", "", "comma-separated static worker base URLs (coordinator mode)")
	shards := flag.Int("shards", 0, "fixed shard count per sweep (0 = shards-per-worker x live workers)")
	shardsPerWorker := flag.Int("shards-per-worker", 0, "auto-planning shards per live worker (0 = default 2)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent shards per worker (0 = default 2)")
	maxAttempts := flag.Int("max-attempts", 0, "dispatch attempts per shard before the sweep fails (0 = default 4)")
	heartbeat := flag.Duration("heartbeat", 0, "worker liveness-probe cadence (0 = default 1s)")
	evictAfter := flag.Duration("evict-after", 0, "unreachable window before a worker is evicted (0 = default 5x heartbeat)")
	shardTimeout := flag.Duration("shard-timeout", 0, "per-shard dispatch timeout (0 = default 10m)")
	stealUnit := flag.Int("steal-unit", 0, "max sweep units per shard for work-stealing (0 = use -shards/-shards-per-worker)")
	noSpeculation := flag.Bool("no-speculation", false, "disable speculative straggler re-execution")
	specPercentile := flag.Float64("spec-percentile", 0, "completed-shard latency percentile anchoring the straggler threshold (0 = default 0.95)")
	specFactor := flag.Float64("spec-factor", 0, "straggler threshold multiplier over the percentile latency (0 = default 1.5)")
	specMinSamples := flag.Int("spec-min-samples", 0, "completed shards required before speculation arms (0 = default 3)")

	joinURL := flag.String("join", "", "coordinator base URL to register this worker with")
	advertise := flag.String("advertise", "", "base URL this worker is reachable at (required with -join)")

	chaosJSON := flag.String("chaos", "", "fault-options JSON injected into this daemon's HTTP surface (chaos testing)")
	chaosTile := flag.Int("chaos-tile", 1, "tile index this daemon plays in the -chaos fault plan (coordinator is 0)")
	flag.Parse()
	sweep.SetDefaultParallelism(*parallel)

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))

	cfg := server.Config{
		Workers:      *workers,
		CacheEntries: *cacheEntries,
		CacheBytes:   int64(*cacheMB) << 20,
		Logger:       log,
		QueueDepth:   *queueDepth,
	}
	if *keysPath != "" {
		reg, err := tenant.Load(*keysPath)
		if err != nil {
			log.Error("keys", "path", *keysPath, "error", err)
			os.Exit(1)
		}
		cfg.Tenants = reg
		log.Info("tenants loaded", "path", *keysPath, "tenants", len(reg.Tenants()))
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, blitzcoin.EngineVersion, int64(*storeMaxMB)<<20, log)
		if err != nil {
			log.Error("store", "dir", *storeDir, "error", err)
			os.Exit(1)
		}
		defer st.Close()
		cfg.Store = st
		log.Info("store open", "dir", *storeDir, "max_mb", *storeMaxMB)
	}
	if *ledgerPath != "" {
		led, err := ledger.Open(*ledgerPath, *ledgerBatch)
		if err != nil {
			log.Error("ledger", "path", *ledgerPath, "error", err)
			os.Exit(1)
		}
		defer func() {
			if err := led.Close(); err != nil {
				log.Warn("ledger close", "error", err)
			}
		}()
		cfg.Ledger = led
		size, root := led.Root()
		log.Info("ledger open", "path", *ledgerPath, "entries", size, "root", root)
	}
	var coord *cluster.Coordinator
	if *coordinator {
		var staticWorkers []string
		for _, w := range strings.Split(*clusterWorkers, ",") {
			if w = strings.TrimSpace(w); w != "" {
				staticWorkers = append(staticWorkers, w)
			}
		}
		var err error
		coord, err = cluster.New(cluster.Config{
			Options: blitzcoin.ClusterOptions{
				Workers:               staticWorkers,
				Shards:                *shards,
				ShardsPerWorker:       *shardsPerWorker,
				MaxInflight:           *maxInflight,
				MaxAttempts:           *maxAttempts,
				HeartbeatMillis:       int(heartbeat.Milliseconds()),
				EvictAfterMillis:      int(evictAfter.Milliseconds()),
				ShardTimeoutMillis:    int(shardTimeout.Milliseconds()),
				StealUnit:             *stealUnit,
				NoSpeculation:         *noSpeculation,
				SpeculationPercentile: *specPercentile,
				SpeculationFactor:     *specFactor,
				SpeculationMinSamples: *specMinSamples,
			},
			Logger: log,
		})
		if err != nil {
			log.Error("cluster", "error", err)
			os.Exit(1)
		}
		defer coord.Close()
		cfg.Run = coord.Run
		cfg.Cluster = coord
	}
	srv := server.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen", "addr", *addr, "error", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Error("addrfile", "path", *addrFile, "error", err)
			os.Exit(1)
		}
	}
	fmt.Printf("blitzd listening on %s\n", bound)

	handler := srv.Handler()
	if *chaosJSON != "" {
		var faults blitzcoin.FaultOptions
		if err := json.Unmarshal([]byte(*chaosJSON), &faults); err != nil {
			log.Error("chaos", "error", err)
			os.Exit(1)
		}
		if *chaosTile == 0 {
			log.Error("chaos", "error", "-chaos-tile 0 is the coordinator's tile; pick another")
			os.Exit(1)
		}
		handler = cluster.NewChaos(faults, *chaosTile, log).Wrap(handler)
		log.Info("chaos armed", "tile", *chaosTile)
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *joinURL != "" {
		self := *advertise
		if self == "" {
			log.Error("-join requires -advertise (the URL this worker is reachable at)")
			os.Exit(1)
		}
		interval := *heartbeat
		if interval <= 0 {
			interval = time.Second
		}
		go cluster.JoinLoop(ctx, nil, *joinURL, self, interval, log)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		log.Error("serve", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	log.Info("draining", "timeout", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Flip the drain flag before http.Server.Shutdown: Shutdown blocks on
	// open connections, and SSE streams only end once they observe the
	// drain (they follow any still-in-flight sweep to completion first).
	srv.BeginDrain()
	// Stop accepting and let in-flight HTTP exchanges finish, then drain
	// the computation pool (detached leaders may outlive their clients).
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("http shutdown", "error", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Warn("drain incomplete", "error", err)
		os.Exit(1)
	}
	log.Info("bye")
}
