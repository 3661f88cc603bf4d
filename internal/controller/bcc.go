package controller

import (
	"blitzcoin/internal/noc"
	"blitzcoin/internal/sim"
)

// BCC is BlitzCoin-Centralized (Sec. V-C): the same proportional
// power-allocation policy as BlitzCoin, but computed by a centralized
// controller that must poll each tile and push each tile's new setting
// sequentially over the NoC. Each tile still has its own oscillator for
// decentralized frequency actuation, but control and state determination
// are centralized, so the response time scales as O(N).
type BCC struct {
	base
	net      *noc.Network
	ctrlTile int

	running bool // a reallocation round is in flight
	rerun   bool // a change arrived mid-round; run again
}

// BCCConfig parameterizes the centralized controller.
type BCCConfig struct {
	// CtrlTile is the mesh index hosting the on-chip controller (the CPU
	// tile in the evaluated SoCs).
	CtrlTile int
}

// centralProcCycles is the centralized controllers' firmware processing
// time per tile (poll handling plus state computation): 240 cycles (0.3 us
// at 800 MHz), which lands the N=13 response in the paper's measured
// 3.8-8.0 us band for BC-C and 3.7-6.4 us band for C-RR.
const centralProcCycles sim.Cycles = 240

// NewBCC builds the controller. The network is used to model the
// sequential poll/update message traffic.
func NewBCC(k *sim.Kernel, net *noc.Network, specs []TileSpec, budgetMW float64, cfg BCCConfig) *BCC {
	return &BCC{
		base:     newBase("BC-C", k, specs, budgetMW),
		net:      net,
		ctrlTile: cfg.CtrlTile,
	}
}

// Start is a no-op: BC-C is purely reactive to activity changes.
func (c *BCC) Start() {}

// SetTarget records the tile's new power target and triggers a centralized
// reallocation round.
func (c *BCC) SetTarget(tile int, mw float64) {
	c.targets[c.mustIndex(tile)] = mw
	c.markChange()
	if c.running {
		c.rerun = true
		return
	}
	c.startRound()
}

// startRound models the controller's sequential sweep: for each managed
// tile, a poll round-trip plus firmware processing; then the allocation
// computation; then a sequential update push to each tile. Allocations take
// effect as each update is delivered.
func (c *BCC) startRound() {
	c.running = true
	// Phase 1: sequential polling. Each tile costs a round-trip to the
	// controller tile plus processing.
	var t sim.Cycles
	for _, s := range c.specs {
		rt := 2 * c.net.UnicastLatencyLowerBound(c.ctrlTile, s.Tile)
		t += rt + centralProcCycles
	}
	// Phase 2: compute shares (one processing quantum), then sequential
	// updates, each landing one message latency after its send slot.
	shares := func() []float64 {
		return proportionalShares(c.specs, c.targets, c.budget)
	}
	send := t + centralProcCycles
	for i, s := range c.specs {
		i, s := i, s
		lat := c.net.UnicastLatencyLowerBound(c.ctrlTile, s.Tile)
		c.kernel.Schedule(send+lat, func() {
			c.setAlloc(i, shares()[i])
		})
		send += centralProcCycles / 4 // update issue rate
	}
	c.kernel.Schedule(send, func() {
		c.markResponded()
		c.running = false
		if c.rerun {
			c.rerun = false
			c.startRound()
		}
	})
}
