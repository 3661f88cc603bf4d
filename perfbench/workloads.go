package main

import (
	"fmt"
	"math/rand"

	"blitzcoin"
)

// Request classes. Every workload splits its operations into a primary
// and a secondary class; end-to-end latencies are reported per class.
const (
	classExchange = "exchange" // engine-sweep, cluster-sweep: exchange sweeps
	classSoC      = "soc"      // engine-sweep: single SoC runs
	classFigure   = "figure"   // cluster-sweep: reduced Fig. 7
	classMemory   = "memory"   // serve-mixed: hit served from the memory cache
	classDisk     = "disk"     // serve-mixed: hit served from the disk store
	classMiss     = "miss"     // serve-mixed: computed on request
)

// Workload sizes. The exchange set-up mirrors the paper's baseline
// (torus, random pairing every 16 exchanges, hotspot start) in the 1-way
// mode; see README.md for why not 4-way.
var (
	engineDims   = []int{12, 20, 32}
	engineTrials = 8
	socPlatforms = []string{"3x3", "4x4", "6x6"}
	socSchemes   = []blitzcoin.Scheme{blitzcoin.BC, blitzcoin.BCC, blitzcoin.CRR}

	serveDim, serveTrials = 8, 4
	serveHot, serveCold   = 8, 160
	serveCacheEntries     = 32

	clusterDim, clusterTrials = 20, 16
	fig7Ns, fig7Trials        = []int{16, 64}, 4
)

// exchangeRequest is one exchange sweep of the benchmark's fixed set-up.
func exchangeRequest(dim, trials int, seed uint64) blitzcoin.Request {
	o := blitzcoin.ExchangeOptions{
		Dim:           dim,
		Torus:         true,
		Mode:          blitzcoin.OneWay,
		RandomPairing: true,
		Init:          blitzcoin.InitHotspot,
		Seed:          seed,
	}
	return blitzcoin.Request{Kind: blitzcoin.KindExchange, Trials: trials, Exchange: &o}
}

func socRequest(platform string, scheme blitzcoin.Scheme, seed uint64) blitzcoin.Request {
	o := blitzcoin.SoCOptions{SoC: platform, Scheme: scheme, Seed: seed}
	return blitzcoin.Request{Kind: blitzcoin.KindSoC, SoC: &o}
}

func fig7Request(seed uint64) blitzcoin.Request {
	o := blitzcoin.FigureOptions{Name: "7", Ns: fig7Ns, Trials: fig7Trials, Seed: seed}
	return blitzcoin.Request{Kind: blitzcoin.KindFigure, Figure: &o}
}

// newSeed draws a request seed: positive and well inside the range JSON
// numbers carry exactly.
func newSeed(r *rand.Rand) uint64 { return uint64(r.Int63n(1<<40)) + 1 }

// Item is one generated request with its class.
type Item struct {
	Class string
	Req   blitzcoin.Request
}

// engineBlock returns block b of the engine-sweep stream: one exchange
// sweep per dimension and one run per SoC platform and scheme, with 6x6
// BC twice, in seeded order. The doubled 6x6 BC run puts the SoC p90 in
// the middle of a class instead of on the edge between two.
func engineBlock(seed uint64, b int) []Item {
	r := rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(b)))
	var items []Item
	for _, d := range engineDims {
		items = append(items, Item{classExchange, exchangeRequest(d, engineTrials, newSeed(r))})
	}
	for _, p := range socPlatforms {
		for _, s := range socSchemes {
			items = append(items, Item{classSoC, socRequest(p, s, newSeed(r))})
		}
	}
	items = append(items, Item{classSoC, socRequest("6x6", blitzcoin.BC, newSeed(r))})
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

// engineBlockLen is the number of requests in an engine-sweep block.
var engineBlockLen = len(engineDims) + len(socPlatforms)*len(socSchemes) + 1

// engineItem returns request i of the engine-sweep stream.
func engineItem(seed uint64, i int) Item {
	return engineBlock(seed, i/engineBlockLen)[i%engineBlockLen]
}

// clusterBlock returns block b of the cluster-sweep stream: two exchange
// sweeps and two reduced Fig. 7s, each with a fresh seed so every request
// misses every cache.
func clusterBlock(seed uint64, b int) []Item {
	r := rand.New(rand.NewSource(int64(seed)*2_000_003 + int64(b)))
	items := []Item{
		{classExchange, exchangeRequest(clusterDim, clusterTrials, newSeed(r))},
		{classExchange, exchangeRequest(clusterDim, clusterTrials, newSeed(r))},
		{classFigure, fig7Request(newSeed(r))},
		{classFigure, fig7Request(newSeed(r))},
	}
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

const clusterBlockLen = 4

func clusterItem(seed uint64, i int) Item {
	return clusterBlock(seed, i/clusterBlockLen)[i%clusterBlockLen]
}

// serveKeys is the serve-mixed key space: a hot set and a cold set larger
// than the memory cache, all small exchange sweeps.
type serveKeys struct {
	Hot, Cold []blitzcoin.Request
}

func newServeKeys(seed uint64) serveKeys {
	r := rand.New(rand.NewSource(int64(seed)*3_000_003 + 1))
	var k serveKeys
	for i := 0; i < serveHot; i++ {
		k.Hot = append(k.Hot, exchangeRequest(serveDim, serveTrials, newSeed(r)))
	}
	for i := 0; i < serveCold; i++ {
		k.Cold = append(k.Cold, exchangeRequest(serveDim, serveTrials, newSeed(r)))
	}
	return k
}

// serveIntent is what the generator meant request i to be: a hot key
// (≈70%), a cold key (≈20%) or a fresh key that must miss (≈10%). The
// cache tier that actually served it is read from the response.
type serveIntent struct {
	Tenant int
	Req    blitzcoin.Request
	Fresh  bool
}

func serveItem(seed uint64, keys serveKeys, i int) serveIntent {
	return serveDraw(seed, keys, i, 1)
}

// hitItem is request i of the capacity phase: a hot or a cold key in the
// stream's proportions, never a fresh one.
func hitItem(seed uint64, keys serveKeys, i int) serveIntent {
	return serveDraw(seed, keys, i, 0.9)
}

// serveDraw draws request i from the first span of the stream's mix.
func serveDraw(seed uint64, keys serveKeys, i int, span float64) serveIntent {
	r := rand.New(rand.NewSource(int64(seed)*4_000_003 + int64(i)))
	in := serveIntent{Tenant: r.Intn(2)}
	switch u := r.Float64() * span; {
	case u < 0.70:
		in.Req = keys.Hot[r.Intn(len(keys.Hot))]
	case u < 0.90:
		in.Req = keys.Cold[r.Intn(len(keys.Cold))]
	default:
		// Fresh seeds live above every key-set seed, so they never repeat
		// one.
		in.Req = exchangeRequest(serveDim, serveTrials, 1<<41+uint64(i)+seed<<20)
		in.Fresh = true
	}
	return in
}

// describe names a request for logs and digest files.
func describe(req blitzcoin.Request) string {
	switch {
	case req.Exchange != nil:
		return fmt.Sprintf("exchange d%d x%d seed %d", req.Exchange.Dim, req.Trials, req.Exchange.Seed)
	case req.SoC != nil:
		return fmt.Sprintf("soc %s %s seed %d", req.SoC.SoC, req.SoC.Scheme, req.SoC.Seed)
	case req.Figure != nil:
		return fmt.Sprintf("figure %s seed %d", req.Figure.Name, req.Figure.Seed)
	}
	return "unknown"
}
