package controller

import (
	"math"

	"blitzcoin/internal/noc"
	"blitzcoin/internal/sim"
)

// PriceTheory is a simplified implementation of the hierarchical
// price-theory-based power manager of Muthukaruppan et al. [81]
// (Sec. VI-D): tiles are grouped into clusters, each with a cluster manager;
// a periodic market clearing gathers per-cluster demand bids, a central
// market assigns cluster budgets in proportion to the bids, and cluster
// managers then distribute their budgets to tiles. The two-level hierarchy
// gives sub-linear scaling, but every clearing still traverses a
// centralized market, and the paper's comparison (Fig. 21) shows it several
// times slower than BlitzCoin even after hardware-implementation scaling.
type PriceTheory struct {
	base
	net *noc.Network

	clusters   [][]int // specs indices per cluster
	mgrs       []int   // manager tile (mesh index) per cluster
	marketTile int
	epoch      sim.Cycles

	pendingResponse bool
	started         bool
}

// PTConfig parameterizes the scheme.
type PTConfig struct {
	// MarketTile hosts the central market (the controller CPU tile).
	MarketTile int
}

// ptProcCycles is the per-message software handling cost at the managers
// and market: 400 cycles (0.5 us), calibrated to the hardware-scaled
// response times the paper derives from [81].
const ptProcCycles sim.Cycles = 400

// NewPriceTheory builds the hierarchical controller.
func NewPriceTheory(k *sim.Kernel, net *noc.Network, specs []TileSpec, budgetMW float64, cfg PTConfig) *PriceTheory {
	c := &PriceTheory{
		base:       newBase("PT", k, specs, budgetMW),
		net:        net,
		marketTile: cfg.MarketTile,
	}
	// Clusters of ceil(sqrt(N)) consecutive specs: the balanced two-level
	// hierarchy.
	size := int(math.Ceil(math.Sqrt(float64(len(specs)))))
	for start := 0; start < len(specs); start += size {
		end := start + size
		if end > len(specs) {
			end = len(specs)
		}
		idxs := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			idxs = append(idxs, i)
		}
		c.clusters = append(c.clusters, idxs)
		// The first tile of each cluster hosts its manager.
		c.mgrs = append(c.mgrs, specs[start].Tile)
	}
	// Clearings are separated by twice the clearing latency: the market
	// runs back-to-back with slack.
	c.epoch = 2 * c.clearingLatency()
	return c
}

// clearingLatency models one full market clearing:
//
//  1. gather: cluster managers poll their tiles sequentially, clusters in
//     parallel (max over clusters);
//  2. market: the central market collects each cluster bid sequentially and
//     computes prices;
//  3. scatter: managers distribute allocations sequentially within the
//     cluster, clusters in parallel.
//
// With ~sqrt(N) clusters of ~sqrt(N) tiles this is O(sqrt(N)) like
// BlitzCoin, but with software-scale constants and a serialized market.
func (c *PriceTheory) clearingLatency() sim.Cycles {
	var gather sim.Cycles
	for ci, idxs := range c.clusters {
		var t sim.Cycles
		for _, i := range idxs {
			rt := 2 * c.net.UnicastLatencyLowerBound(c.mgrs[ci], c.specs[i].Tile)
			t += rt + ptProcCycles
		}
		if t > gather {
			gather = t
		}
	}
	var market sim.Cycles
	for ci := range c.clusters {
		rt := 2 * c.net.UnicastLatencyLowerBound(c.marketTile, c.mgrs[ci])
		market += rt + ptProcCycles
	}
	scatter := gather // symmetric distribution pass
	return gather + market + scatter
}

// Start launches the periodic market.
func (c *PriceTheory) Start() {
	if c.started {
		return
	}
	c.started = true
	var clear func()
	clear = func() {
		lat := c.clearingLatency()
		c.kernel.Schedule(lat, func() {
			c.apply()
			if c.pendingResponse {
				c.markResponded()
				c.pendingResponse = false
			}
		})
		c.kernel.Schedule(c.epoch, clear)
	}
	c.kernel.Schedule(1, clear)
}

// SetTarget registers a bid change; it takes effect at the next clearing.
func (c *PriceTheory) SetTarget(tile int, mw float64) {
	c.targets[c.mustIndex(tile)] = mw
	c.markChange()
	c.pendingResponse = true
}

// apply performs the two-level proportional allocation.
func (c *PriceTheory) apply() {
	// Cluster demands.
	demands := make([]float64, len(c.clusters))
	var total float64
	for ci, idxs := range c.clusters {
		for _, i := range idxs {
			demands[ci] += c.targets[i]
		}
		total += demands[ci]
	}
	if total == 0 {
		for i := range c.specs {
			c.setAlloc(i, 0)
		}
		return
	}
	for ci, idxs := range c.clusters {
		clusterBudget := c.budget * demands[ci] / total
		sub := make([]TileSpec, len(idxs))
		subT := make([]float64, len(idxs))
		for k, i := range idxs {
			sub[k] = c.specs[i]
			subT[k] = c.targets[i]
		}
		shares := proportionalShares(sub, subT, clusterBudget)
		for k, i := range idxs {
			c.setAlloc(i, shares[k])
		}
	}
}

// NumClusters returns the hierarchy width, for tests.
func (c *PriceTheory) NumClusters() int { return len(c.clusters) }
