package soc

import (
	"strings"
	"testing"

	"blitzcoin/internal/workload"
)

func run3x3(t *testing.T, scheme Scheme, budget float64, g *workload.Graph) Result {
	t.Helper()
	r := New(SoC3x3(budget, scheme, 7))
	res := r.Run(g)
	if !res.Completed {
		t.Fatalf("%v did not complete: %+v", scheme, res.String())
	}
	return res
}

func TestConfigsValidate(t *testing.T) {
	for _, cfg := range []Config{
		SoC3x3(120, SchemeBC, 1),
		SoC4x4(450, SchemeBC, 1),
		SoC6x6(200, SchemeBC, 1),
	} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
}

func TestSoC3x3Composition(t *testing.T) {
	cfg := SoC3x3(120, SchemeBC, 1)
	if got := len(cfg.AccelTiles()); got != 6 {
		t.Fatalf("3x3 managed accelerators = %d, want 6", got)
	}
	if got := cfg.CombinedPMaxMW(); got < 395 || got > 405 {
		t.Fatalf("3x3 combined Pmax = %.1f, want about 400 (so 120 mW is 30%%)", got)
	}
}

func TestSoC4x4Composition(t *testing.T) {
	cfg := SoC4x4(450, SchemeBC, 1)
	if got := len(cfg.AccelTiles()); got != 13 {
		t.Fatalf("4x4 managed accelerators = %d, want 13", got)
	}
	frac := 450 / cfg.CombinedPMaxMW()
	if frac < 0.30 || frac > 0.38 {
		t.Fatalf("450 mW fraction = %.3f, want about 1/3", frac)
	}
}

func TestSoC6x6Composition(t *testing.T) {
	cfg := SoC6x6(200, SchemeBC, 1)
	if got := len(cfg.Tiles); got != 36 {
		t.Fatalf("6x6 tile count = %d", got)
	}
	if got := len(cfg.AccelTiles()); got != 10 {
		t.Fatalf("PM cluster size = %d, want 10", got)
	}
}

func TestAllSchemesCompleteAndEnforceCap(t *testing.T) {
	g := workload.AutonomousVehicleParallel()
	for _, scheme := range []Scheme{SchemeBC, SchemeBCC, SchemeCRR, SchemeTS, SchemePT, SchemeStatic} {
		res := run3x3(t, scheme, 120, g)
		// The steady-state cap must hold; transient actuation excursions
		// while one tile ramps down and another ramps up are tolerated
		// (the paper's traces show overshoot at activity edges too).
		if res.CapExceeded(0.35) {
			t.Fatalf("%v: peak %.1f mW far above 120 mW budget", scheme, res.PeakPowerMW)
		}
		if res.ExecCycles == 0 || res.AvgPowerMW <= 0 {
			t.Fatalf("%v: degenerate result %s", scheme, res.String())
		}
	}
}

func TestBlitzCoinFastestResponse(t *testing.T) {
	// Fig. 17 (right): BC's response time is roughly an order of magnitude
	// below the centralized schemes.
	g := workload.Repeat(workload.AutonomousVehicleParallel(), 2)
	bc := run3x3(t, SchemeBC, 120, g)
	bcc := run3x3(t, SchemeBCC, 120, g)
	crr := run3x3(t, SchemeCRR, 120, g)
	if bc.MeanResponseMicros() <= 0 {
		t.Fatal("BC recorded no responses")
	}
	if bc.MeanResponseMicros() >= bcc.MeanResponseMicros() {
		t.Fatalf("BC response %.2fus not faster than BC-C %.2fus",
			bc.MeanResponseMicros(), bcc.MeanResponseMicros())
	}
	if bc.MeanResponseMicros() >= crr.MeanResponseMicros() {
		t.Fatalf("BC response %.2fus not faster than C-RR %.2fus",
			bc.MeanResponseMicros(), crr.MeanResponseMicros())
	}
}

func TestBlitzCoinSubMicrosecondResponse(t *testing.T) {
	// Sec. VI-C / Fig. 20: BlitzCoin responds in under a microsecond to a
	// few microseconds on small SoCs.
	g := workload.Repeat(workload.AutonomousVehicleParallel(), 2)
	bc := run3x3(t, SchemeBC, 120, g)
	if us := bc.MeanResponseMicros(); us > 3 {
		t.Fatalf("BC mean response %.2f us, want about 1 us", us)
	}
}

func TestBlitzCoinBeatsCentralizedThroughput(t *testing.T) {
	// Fig. 17: BC executes faster than BC-C, which executes faster than
	// C-RR, on the autonomous-vehicle workload.
	g := workload.Repeat(workload.AutonomousVehicleDependent(), 2)
	bc := run3x3(t, SchemeBC, 60, g)
	crr := run3x3(t, SchemeCRR, 60, g)
	if bc.ExecCycles >= crr.ExecCycles {
		t.Fatalf("BC exec %.1fus not faster than C-RR %.1fus",
			bc.ExecMicros(), crr.ExecMicros())
	}
}

func TestBlitzCoinBeatsStatic(t *testing.T) {
	// Sec. VI-C: BlitzCoin improves throughput over static allocation.
	g := workload.Repeat(workload.AutonomousVehicleParallel(), 2)
	bc := run3x3(t, SchemeBC, 120, g)
	st := run3x3(t, SchemeStatic, 120, g)
	if bc.ExecCycles >= st.ExecCycles {
		t.Fatalf("BC exec %.1fus not faster than Static %.1fus",
			bc.ExecMicros(), st.ExecMicros())
	}
}

func TestRPFasterThanAP(t *testing.T) {
	// Sec. VI-A: the relative-proportional allocation beats the
	// absolute-proportional one (by 3.0-4.1% in the paper).
	g := workload.Repeat(workload.AutonomousVehicleParallel(), 2)
	mk := func(s Strategy) Result {
		cfg := SoC3x3(120, SchemeBC, 7)
		cfg.Strategy = s
		r := New(cfg)
		return r.Run(g)
	}
	rp := mk(RelativeProportional)
	ap := mk(AbsoluteProportional)
	if !rp.Completed || !ap.Completed {
		t.Fatal("runs incomplete")
	}
	if rp.ExecCycles >= ap.ExecCycles {
		t.Fatalf("RP exec %.1fus not faster than AP %.1fus", rp.ExecMicros(), ap.ExecMicros())
	}
}

func TestHighBudgetFasterThanLow(t *testing.T) {
	g := workload.AutonomousVehicleParallel()
	hi := run3x3(t, SchemeBC, 120, g)
	lo := run3x3(t, SchemeBC, 60, g)
	if hi.ExecCycles >= lo.ExecCycles {
		t.Fatalf("120 mW exec %.1fus not faster than 60 mW %.1fus",
			hi.ExecMicros(), lo.ExecMicros())
	}
}

func TestBudgetUtilizationHigh(t *testing.T) {
	// Fig. 19: BlitzCoin utilizes nearly the full budget (97% measured)
	// while a workload saturates the SoC.
	g := workload.Repeat(workload.AutonomousVehicleParallel(), 3)
	bc := run3x3(t, SchemeBC, 60, g)
	if got := bc.UtilizationPct(); got < 70 || got > 115 {
		t.Fatalf("BC utilization %.1f%%, want high (near 100)", got)
	}
}

func TestFourByFourRuns(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBC, SchemeBCC, SchemeCRR} {
		r := New(SoC4x4(450, scheme, 3))
		res := r.Run(workload.ComputerVisionParallel())
		if !res.Completed {
			t.Fatalf("%v on 4x4 did not complete", scheme)
		}
		if res.CapExceeded(0.25) {
			t.Fatalf("%v on 4x4: peak %.1f over 450 budget", scheme, res.PeakPowerMW)
		}
	}
}

func TestSiliconWorkloadOn6x6(t *testing.T) {
	r := New(SoC6x6(200, SchemeBC, 5))
	res := r.Run(workload.SevenAcceleratorSilicon())
	if !res.Completed {
		t.Fatal("silicon workload did not complete")
	}
	if res.MeanResponseMicros() <= 0 || res.MeanResponseMicros() > 5 {
		t.Fatalf("silicon BC response %.2f us, want about 1 us", res.MeanResponseMicros())
	}
}

func TestDeterministicRuns(t *testing.T) {
	g := workload.AutonomousVehicleParallel()
	a := run3x3(t, SchemeBC, 120, g)
	b := run3x3(t, SchemeBC, 120, g)
	if a.ExecCycles != b.ExecCycles || a.AvgPowerMW != b.AvgPowerMW {
		t.Fatalf("same seed diverged: %s vs %s", a.String(), b.String())
	}
}

func TestPowerTraceRecorded(t *testing.T) {
	g := workload.AutonomousVehicleParallel()
	res := run3x3(t, SchemeBC, 120, g)
	names := res.Recorder.Names()
	if len(names) != 6 {
		t.Fatalf("trace series = %v, want 6 accelerator tiles", names)
	}
	for _, n := range names {
		if !strings.HasPrefix(n, "t") {
			t.Fatalf("unexpected series name %q", n)
		}
	}
	if res.Total.At(res.ExecCycles/2) <= 0 {
		t.Fatal("total power trace empty mid-run")
	}
}

func TestRunTwicePanics(t *testing.T) {
	r := New(SoC3x3(120, SchemeBC, 1))
	r.Run(workload.AutonomousVehicleParallel())
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	r.Run(workload.AutonomousVehicleParallel())
}

func TestMissingAcceleratorPanics(t *testing.T) {
	r := New(SoC3x3(120, SchemeBC, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("missing accelerator type did not panic")
		}
	}()
	r.Run(workload.ComputerVisionParallel()) // needs GEMM etc., absent on 3x3
}

func TestSchemeAndStrategyStrings(t *testing.T) {
	if SchemeBC.String() != "BC" || SchemeCRR.String() != "C-RR" {
		t.Fatal("scheme names wrong")
	}
	if AbsoluteProportional.String() != "AP" || RelativeProportional.String() != "RP" {
		t.Fatal("strategy names wrong")
	}
	if TileCPU.String() != "CPU" || TileAccel.String() != "ACC" {
		t.Fatal("tile kind names wrong")
	}
}

// A tile can run past its task's end between progress updates, so a UVFR
// settle may re-arm the completion with remaining < 0. The delay must clamp
// to one cycle: seed 3228251183 used to wrap it and panic "event scheduled
// in the past".
func TestOvershotTaskRearmsCompletion(t *testing.T) {
	r := New(SoC6x6(200, SchemeBC, 3228251183))
	res := r.Run(workload.Repeat(workload.SevenAcceleratorParallel(), 3))
	if !res.Completed {
		t.Fatalf("run did not complete: %s", res.String())
	}
	bc := r.Controller().(*bcAdapter)
	has, _ := bc.Emulator().Snapshot()
	var sum int64
	for _, h := range has {
		sum += h
	}
	if sum != bc.pool {
		t.Fatalf("coins at end = %d, pool = %d", sum, bc.pool)
	}
}
