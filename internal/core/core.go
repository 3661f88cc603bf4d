// Package core models the hardware embodiment of BlitzCoin inside one tile
// (Sec. IV-A, Fig. 10-11): the coin counter with its 6-bit precision and
// sign bit, the lookup table converting a coin count into a frequency
// target, the control/status registers of the NoC-domain socket, and the
// per-tile power-management unit that chains
//
//	coins -> LUT -> Ftarget -> UVFR (LDO+RO+TDC) -> tile clock.
//
// The distributed exchange protocol itself lives in package coin; this
// package provides the per-tile datapath the SoC simulator instantiates.
package core

import (
	"fmt"

	"blitzcoin/internal/power"
	"blitzcoin/internal/uvfr"
)

// CoinBits is the coin counter precision: 6 bits yield the 64 power levels
// per tile the implementation supports — far finer than the 2-5 levels of
// prior designs (Sec. IV-A).
const CoinBits = 6

// CoinLevels is the number of distinct non-negative coin counts.
const CoinLevels = 1 << CoinBits // 64

// MaxCoins is the largest representable coin count.
const MaxCoins = CoinLevels - 1 // 63

// MinCoins is the most negative transient count. The register carries a
// sign bit to absorb underflow when a delayed request arrives after the
// tile already gave its coins to another neighbor; steady-state counts are
// always non-negative.
const MinCoins = -CoinLevels // -64

// Counter is the 7-bit (sign + 6-bit) saturating coin register.
type Counter struct {
	v          int16
	saturated  uint64
	underflows uint64
}

// Get returns the current count.
func (c *Counter) Get() int64 { return int64(c.v) }

// Set loads a value, saturating at the register bounds.
func (c *Counter) Set(v int64) {
	switch {
	case v > MaxCoins:
		c.v = MaxCoins
		c.saturated++
	case v < MinCoins:
		c.v = MinCoins
		c.saturated++
	default:
		c.v = int16(v)
	}
	if c.v < 0 {
		c.underflows++
	}
}

// Add applies a signed delta with saturation, the single-cycle update the
// FSM performs on a coin exchange.
func (c *Counter) Add(delta int64) { c.Set(int64(c.v) + delta) }

// Negative reports whether the register currently holds a transient
// negative count.
func (c *Counter) Negative() bool { return c.v < 0 }

// Saturations returns how many updates hit the register bounds.
func (c *Counter) Saturations() uint64 { return c.saturated }

// Underflows returns how many updates left the register negative; this must
// only ever be a transient convergence artifact.
func (c *Counter) Underflows() uint64 { return c.underflows }

// FreqLUT is the 64-entry lookup table converting a coin count into the
// tile's target frequency, built from the tile's power pre-characterization
// and the SoC's coin value (mW per coin). Negative transient counts map to
// the minimum frequency.
type FreqLUT struct {
	entries [CoinLevels]float64
}

// BuildLUT constructs the table: entry k is the highest frequency
// sustainable within a power allocation of k coins.
func BuildLUT(curve *power.Curve, mWPerCoin float64) *FreqLUT {
	if mWPerCoin <= 0 {
		panic(fmt.Sprintf("core: invalid coin value %v mW", mWPerCoin))
	}
	var l FreqLUT
	for k := 0; k < CoinLevels; k++ {
		l.entries[k] = curve.FreqAtPower(float64(k) * mWPerCoin)
	}
	return &l
}

// Lookup returns the frequency target for a coin count, clamping transients
// into the table domain.
func (l *FreqLUT) Lookup(coins int64) float64 {
	if coins < 0 {
		coins = 0
	}
	if coins > MaxCoins {
		coins = MaxCoins
	}
	return l.entries[coins]
}

// CSR addresses of the NoC-domain socket's register file (Fig. 11). The
// socket also hosts the ring-oscillator configuration and the BlitzCoin
// unit's configuration registers.
const (
	CSREnable       = 0x00 // 1 = BlitzCoin unit active
	CSRMaxCoins     = 0x04 // target coin count (max)
	CSRHasCoins     = 0x08 // current coin count (read-only mirror)
	CSRRefreshCount = 0x0C // base exchange interval
	CSRFTarget      = 0x10 // current LUT output, MHz (read-only)
	CSRROTrim       = 0x14 // ring-oscillator trim code
	CSRStatus       = 0x18 // bit0: negative transient; bit1: saturated
	CSRFaultStatus  = 0x1C // bit0: fail-stopped
)

// CSRFile is the memory-mapped register file reachable over NoC plane 5.
type CSRFile struct {
	regs map[uint32]uint32
}

// NewCSRFile returns an empty register file.
func NewCSRFile() *CSRFile { return &CSRFile{regs: make(map[uint32]uint32)} }

// Write stores a register value.
func (f *CSRFile) Write(addr, v uint32) { f.regs[addr] = v }

// Read returns a register value (0 when never written).
func (f *CSRFile) Read(addr uint32) uint32 { return f.regs[addr] }

// TilePM is the per-tile power-management datapath: coin counter, LUT, CSRs
// and the UVFR regulator. The SoC harness feeds coin updates in (from the
// distributed exchange) and reads the resulting tile frequency out.
type TilePM struct {
	Counter Counter
	LUT     *FreqLUT
	CSRs    *CSRFile
	Reg     *uvfr.Regulator

	curve *power.Curve
	dead  bool
}

// NewTilePM wires a PM unit for an accelerator with the given
// characterization at the given coin value.
func NewTilePM(curve *power.Curve, mWPerCoin float64) *TilePM {
	t := &TilePM{
		LUT:   BuildLUT(curve, mWPerCoin),
		CSRs:  NewCSRFile(),
		Reg:   uvfr.NewRegulator(uvfr.ConfigForCurve(curve)),
		curve: curve,
	}
	t.CSRs.Write(CSREnable, 1)
	return t
}

// SetCoins loads a new coin count (from an exchange) and retargets the
// regulator through the LUT — steps (1), (2) and (4) of the Sec. IV-A
// control flow.
func (t *TilePM) SetCoins(coins int64) {
	if t.dead {
		return
	}
	t.Counter.Set(coins)
	f := t.LUT.Lookup(t.Counter.Get())
	t.Reg.SetTargetMHz(f)
	t.CSRs.Write(CSRHasCoins, uint32(uint16(t.Counter.Get())))
	t.CSRs.Write(CSRFTarget, uint32(f))
	var status uint32
	if t.Counter.Negative() {
		status |= 1
	}
	if t.Counter.Saturations() > 0 {
		status |= 2
	}
	t.CSRs.Write(CSRStatus, status)
}

// SetPowerMW retargets the regulator for a direct power allocation in mW,
// bypassing the coin quantization. The SoC harness uses this path for the
// centralized baselines, whose controllers compute allocations in watts; the
// decentralized path goes through SetCoins and the LUT.
func (t *TilePM) SetPowerMW(mw float64) {
	if t.dead {
		return
	}
	f := t.curve.FreqAtPower(mw)
	t.Reg.SetTargetMHz(f)
	t.CSRs.Write(CSRFTarget, uint32(f))
}

// FTargetMHz returns the LUT output for the current coin count.
func (t *TilePM) FTargetMHz() float64 { return t.Reg.TargetMHz() }

// FreqMHz returns the current (settling or settled) tile clock frequency.
func (t *TilePM) FreqMHz() float64 { return t.Reg.FreqMHz() }

// PowerMW returns the tile's current power draw at its present frequency,
// per the tile's characterization curve; an idle tile (coins at or below
// zero and a zero target) draws the deep-idle power. A fail-stopped tile
// draws nothing.
func (t *TilePM) PowerMW(active bool) float64 {
	if t.dead {
		return 0
	}
	if !active {
		return t.curve.IdlePowerMW()
	}
	return t.curve.PowerAt(t.FreqMHz())
}

// Kill fail-stops the tile's PM unit: the regulator collapses to zero, the
// CSR fault bit latches, and all later coin updates are ignored. Used by
// fault-injection experiments; there is no un-kill.
func (t *TilePM) Kill() {
	if t.dead {
		return
	}
	t.dead = true
	t.Reg.SetTargetMHz(0)
	t.CSRs.Write(CSREnable, 0)
	t.CSRs.Write(CSRFaultStatus, t.CSRs.Read(CSRFaultStatus)|1)
}

// Alive reports whether the PM unit is still running.
func (t *TilePM) Alive() bool { return !t.dead }

// Curve exposes the tile's characterization.
func (t *TilePM) Curve() *power.Curve { return t.curve }
