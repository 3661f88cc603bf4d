// Package controller implements the power-allocation controllers evaluated
// in the paper: the centralized baselines C-RR and BC-C (Sec. V-C), the
// decentralized ring-based TokenSmart (Sec. III-C), the hierarchical
// price-theory scheme PT (Sec. VI-D), and the static allocation used as the
// silicon baseline (Sec. VI-C). BlitzCoin itself is the coin-exchange
// emulator of package coin; the SoC harness adapts it to the same interface.
//
// Every controller allocates a global power budget across accelerator
// tiles, reacting to activity changes (task start/end) with its own latency
// dynamics, which it models with messages over the simulated NoC — that is
// what makes the response-time comparison meaningful.
package controller

import (
	"fmt"

	"blitzcoin/internal/sim"
)

// TileSpec describes one managed accelerator tile.
type TileSpec struct {
	// Tile is the mesh index of the tile.
	Tile int
	// PMaxMW and PMinMW bound the tile's operating power range.
	PMaxMW, PMinMW float64
}

// Controller is the interface every power-management scheme implements.
type Controller interface {
	// Name returns the scheme's short name as used in the paper's figures.
	Name() string
	// Start schedules the controller's periodic behavior; call once after
	// construction.
	Start()
	// SetTarget reports an activity change on a tile: the tile now wants
	// the given power target in mW (0 = inactive, relinquish allocation).
	SetTarget(tile int, mw float64)
	// AllocationMW returns the tile's current allocation.
	AllocationMW(tile int) float64
	// OnAllocation registers the observer invoked on allocation changes.
	OnAllocation(fn func(tile int, mw float64))
	// LastResponseCycles returns the scheme-defined response time of the
	// most recently completed reallocation: the time from the triggering
	// activity change until the allocation of every tile was adjusted.
	LastResponseCycles() sim.Cycles
	// ResponseSamples returns every recorded response time, in order.
	ResponseSamples() []sim.Cycles
	// BudgetMW returns the global cap the controller enforces.
	BudgetMW() float64
}

// base carries the bookkeeping shared by all controllers.
type base struct {
	name    string
	kernel  *sim.Kernel
	specs   []TileSpec
	byTile  map[int]int // mesh index -> specs index
	budget  float64
	targets []float64 // desired power per tile (0 = inactive)
	allocs  []float64 // current allocation per tile

	onAlloc      func(tile int, mw float64)
	lastChangeAt sim.Cycles
	lastResponse sim.Cycles
	responses    []sim.Cycles
}

func newBase(name string, k *sim.Kernel, specs []TileSpec, budgetMW float64) base {
	if budgetMW <= 0 {
		panic(fmt.Sprintf("controller: non-positive budget %v", budgetMW))
	}
	if len(specs) == 0 {
		panic("controller: no tiles to manage")
	}
	b := base{
		name:    name,
		kernel:  k,
		specs:   specs,
		byTile:  make(map[int]int, len(specs)),
		budget:  budgetMW,
		targets: make([]float64, len(specs)),
		allocs:  make([]float64, len(specs)),
	}
	for i, s := range specs {
		if s.PMaxMW <= 0 || s.PMinMW < 0 || s.PMinMW > s.PMaxMW {
			panic(fmt.Sprintf("controller: invalid tile spec %+v", s))
		}
		if _, dup := b.byTile[s.Tile]; dup {
			panic(fmt.Sprintf("controller: duplicate tile %d", s.Tile))
		}
		b.byTile[s.Tile] = i
	}
	return b
}

func (b *base) Name() string      { return b.name }
func (b *base) BudgetMW() float64 { return b.budget }

func (b *base) OnAllocation(fn func(tile int, mw float64)) { b.onAlloc = fn }

func (b *base) AllocationMW(tile int) float64 {
	return b.allocs[b.mustIndex(tile)]
}

func (b *base) LastResponseCycles() sim.Cycles { return b.lastResponse }

func (b *base) mustIndex(tile int) int {
	i, ok := b.byTile[tile]
	if !ok {
		panic(fmt.Sprintf("controller: tile %d is not managed", tile))
	}
	return i
}

// setAlloc applies an allocation and notifies the observer.
func (b *base) setAlloc(idx int, mw float64) {
	if b.allocs[idx] == mw {
		return
	}
	b.allocs[idx] = mw
	if b.onAlloc != nil {
		b.onAlloc(b.specs[idx].Tile, mw)
	}
}

// markChange records the activity-change instant for response measurement.
func (b *base) markChange() { b.lastChangeAt = b.kernel.Now() }

// markResponded records completion of the reallocation triggered by the
// last change.
func (b *base) markResponded() {
	b.lastResponse = b.kernel.Now() - b.lastChangeAt
	b.responses = append(b.responses, b.lastResponse)
}

// ResponseSamples returns every recorded response time, in order.
func (b *base) ResponseSamples() []sim.Cycles { return b.responses }

// proportionalShares computes each active tile's share of the budget in
// proportion to its target, capped at the tile's PMax; freed headroom from
// capped tiles is re-spread over the rest. This is the allocation rule both
// BlitzCoin and BC-C implement (Sec. V-C: "the frequency of each tile is set
// in proportion to the ratio of the tile's target power to the whole SoC's
// power").
func proportionalShares(specs []TileSpec, targets []float64, budget float64) []float64 {
	out := make([]float64, len(specs))
	capped := make([]bool, len(specs))
	remaining := budget
	for {
		var sumT float64
		for i, t := range targets {
			if t > 0 && !capped[i] {
				sumT += t
			}
		}
		if sumT == 0 {
			break
		}
		overflow := false
		for i, t := range targets {
			if t <= 0 || capped[i] {
				continue
			}
			share := remaining * t / sumT
			if share >= specs[i].PMaxMW {
				out[i] = specs[i].PMaxMW
				capped[i] = true
				remaining -= specs[i].PMaxMW
				overflow = true
			}
		}
		if !overflow {
			for i, t := range targets {
				if t > 0 && !capped[i] {
					out[i] = remaining * t / sumT
				}
			}
			break
		}
	}
	return out
}
