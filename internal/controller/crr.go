package controller

import (
	"blitzcoin/internal/noc"
	"blitzcoin/internal/sim"
)

// CRR is the Centralized-Round-Robin baseline (Sec. V-C), a simplified
// version of the centralized controller of Mantovani et al. [42]: the
// controller monitors tile status and uses a round-robin scheme to decide
// which tiles run at maximum (V, F) under the global power cap; the other
// active tiles run at minimum (V, F). The grant set rotates periodically for
// fairness. Allocation is therefore discrete (max or min), which is what
// limits C-RR's throughput relative to the fine-grained schemes
// (Sec. VI-A).
type CRR struct {
	base
	net      *noc.Network
	ctrlTile int
	rotation sim.Cycles

	cursor  int // round-robin start position
	running bool
	rerun   bool
	started bool
}

// CRRConfig parameterizes the baseline.
type CRRConfig struct {
	CtrlTile int
	// RotationCycles is the fairness rotation period; zero selects
	// 40000 cycles (50 us).
	RotationCycles sim.Cycles
}

// NewCRR builds the baseline controller.
func NewCRR(k *sim.Kernel, net *noc.Network, specs []TileSpec, budgetMW float64, cfg CRRConfig) *CRR {
	c := &CRR{
		base:     newBase("C-RR", k, specs, budgetMW),
		net:      net,
		ctrlTile: cfg.CtrlTile,
		rotation: cfg.RotationCycles,
	}
	if c.rotation == 0 {
		c.rotation = 40000
	}
	return c
}

// Start begins the periodic fairness rotation.
func (c *CRR) Start() {
	if c.started {
		return
	}
	c.started = true
	var rotate func()
	rotate = func() {
		c.cursor = (c.cursor + 1) % len(c.specs)
		if !c.running {
			// Rotations are routine (not activity-triggered), so they do
			// not reset the response-time clock.
			c.startRound(false)
		}
		c.kernel.Schedule(c.rotation, rotate)
	}
	c.kernel.Schedule(c.rotation, rotate)
}

// SetTarget records the activity change and triggers a grant recomputation.
func (c *CRR) SetTarget(tile int, mw float64) {
	c.targets[c.mustIndex(tile)] = mw
	c.markChange()
	if c.running {
		c.rerun = true
		return
	}
	c.startRound(true)
}

// grants computes the greedy round-robin allocation (Table I lists C-RR's
// allocation as "greedy"): the budget first covers every active tile's Pmin
// floor; then, walking round-robin from the rotating cursor, each active
// tile greedily takes as much of the remaining budget as it can use, up to
// its Pmax. Early tiles in the rotation run at or near maximum (V, F) while
// late ones stay at minimum — the discrete, rotation-granularity allocation
// whose throughput cost Sec. VI-A quantifies.
func (c *CRR) grants() []float64 {
	out := make([]float64, len(c.specs))
	remaining := c.budget
	for i, t := range c.targets {
		if t > 0 {
			out[i] = c.specs[i].PMinMW
			remaining -= c.specs[i].PMinMW
		}
	}
	for k := 0; k < len(c.specs); k++ {
		i := (c.cursor + k) % len(c.specs)
		if c.targets[i] <= 0 || remaining <= 0 {
			continue
		}
		step := c.specs[i].PMaxMW - c.specs[i].PMinMW
		if step > remaining {
			step = remaining
		}
		out[i] += step
		remaining -= step
	}
	return out
}

// startRound models the controller sweep, as in BC-C: sequential polling
// plus sequential grant updates. fromChange marks rounds triggered by an
// activity change, which are the ones timed as "response".
func (c *CRR) startRound(fromChange bool) {
	c.running = true
	var t sim.Cycles
	for _, s := range c.specs {
		rt := 2 * c.net.UnicastLatencyLowerBound(c.ctrlTile, s.Tile)
		t += rt + centralProcCycles
	}
	send := t + centralProcCycles
	for i, s := range c.specs {
		i, s := i, s
		lat := c.net.UnicastLatencyLowerBound(c.ctrlTile, s.Tile)
		c.kernel.Schedule(send+lat, func() {
			c.setAlloc(i, c.grants()[i])
		})
		send += centralProcCycles / 4
	}
	c.kernel.Schedule(send, func() {
		if fromChange {
			c.markResponded()
		}
		c.running = false
		if c.rerun {
			c.rerun = false
			c.startRound(true)
		}
	})
}
