package sim

import (
	"testing"

	"dsarp/internal/core"
	"dsarp/internal/timing"
	"dsarp/internal/trace"
	"dsarp/internal/workload"
)

func TestDeterminism(t *testing.T) {
	cfg := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindDSARP,
		Density:   timing.Gb16,
		Seed:      9,
		Warmup:    10_000,
		Measure:   40_000,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.IPC {
		if a.IPC[i] != b.IPC[i] {
			t.Fatalf("core %d IPC diverged: %v vs %v", i, a.IPC[i], b.IPC[i])
		}
	}
	if a.DRAM != b.DRAM {
		t.Fatalf("DRAM stats diverged: %+v vs %+v", a.DRAM, b.DRAM)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	base := Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindREFpb,
		Density:   timing.Gb8,
		Warmup:    10_000,
		Measure:   40_000,
	}
	a, _ := Run(base)
	base.Seed = 1234
	b, _ := Run(base)
	if a.DRAM == b.DRAM {
		t.Error("different seeds produced identical DRAM stats")
	}
}

func TestMPKIReflectsWorkloadIntensity(t *testing.T) {
	heavy, err := workload.ByName("rand.access")
	if err != nil {
		t.Fatal(err)
	}
	light, err := workload.ByName("povray.render")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Workload:  workload.Workload{Name: "pair", Benchmarks: []trace.Profile{heavy, light}},
		Mechanism: core.KindNoRef,
		Seed:      3,
		Warmup:    20_000,
		Measure:   80_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MPKI[0] < 10 {
		t.Errorf("rand.access measured MPKI %.1f, want >= 10 (intensive)", res.MPKI[0])
	}
	if res.MPKI[1] >= 10 {
		t.Errorf("povray.render measured MPKI %.1f, want < 10", res.MPKI[1])
	}
	if res.IPC[1] <= res.IPC[0] {
		t.Errorf("CPU-bound core should out-IPC the memory-bound one: %v vs %v", res.IPC[1], res.IPC[0])
	}
}

func TestEnergyAccounting(t *testing.T) {
	res := runSmoke(t, core.KindREFab, timing.Gb32)
	if res.Energy.Total() <= 0 {
		t.Fatal("no energy accounted")
	}
	if res.Energy.Refresh <= 0 {
		t.Error("refresh energy missing under REFab")
	}
	if res.EnergyPerAccess() <= 0 {
		t.Error("energy per access missing")
	}
	noref := runSmoke(t, core.KindNoRef, timing.Gb32)
	if noref.Energy.Refresh != 0 {
		t.Error("NoREF should burn no refresh energy")
	}
	if noref.EnergyPerAccess() >= res.EnergyPerAccess() {
		t.Errorf("refresh-free energy/access (%.2f) should beat REFab (%.2f)",
			noref.EnergyPerAccess(), res.EnergyPerAccess())
	}
}

func TestDensityMonotonicity(t *testing.T) {
	// Higher density -> longer tRFC -> more refresh pain under REFab, and
	// per-bank refresh hides part of it at every density.
	prev := 0.0
	for _, d := range []timing.Density{timing.Gb8, timing.Gb16, timing.Gb32} {
		ideal := sumIPC(runSmoke(t, core.KindNoRef, d))
		abLoss := 1 - sumIPC(runSmoke(t, core.KindREFab, d))/ideal
		pbLoss := 1 - sumIPC(runSmoke(t, core.KindREFpb, d))/ideal
		t.Logf("%v: REFab loss %.1f%%, REFpb loss %.1f%%", d, 100*abLoss, 100*pbLoss)
		if abLoss <= prev {
			t.Errorf("%v: REFab loss %.1f%% does not exceed %.1f%% at the density below", d, 100*abLoss, 100*prev)
		}
		if pbLoss >= abLoss {
			t.Errorf("%v: REFpb loss %.1f%% is not below REFab's %.1f%%", d, 100*pbLoss, 100*abLoss)
		}
		prev = abLoss
	}
}

func TestSubarraySweepMonotone(t *testing.T) {
	// More subarrays -> fewer SARP conflicts -> SARPpb gains over REFpb
	// must not collapse (Table 5 shape).
	gain := func(subs int) float64 {
		var ws [2]float64
		for i, k := range []core.Kind{core.KindREFpb, core.KindSARPpb} {
			res, err := Run(Config{
				Workload:         smallWorkload(),
				Mechanism:        k,
				Density:          timing.Gb32,
				SubarraysPerBank: subs,
				Seed:             5,
				Warmup:           20_000,
				Measure:          80_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			ws[i] = sumIPC(res)
		}
		return ws[1] / ws[0]
	}
	one := gain(1)
	many := gain(32)
	if one > 1.02 {
		t.Errorf("SARP with 1 subarray should be ~REFpb, got ratio %.3f", one)
	}
	if many <= one {
		t.Errorf("SARP gain should grow with subarrays: 1->%.3f, 32->%.3f", one, many)
	}
}

func TestAdjustTimingHook(t *testing.T) {
	adjusted := false
	_, err := Run(Config{
		Workload:  smallWorkload(),
		Mechanism: core.KindREFpb,
		Warmup:    1000,
		Measure:   2000,
		AdjustTiming: func(p *timing.Params) {
			p.TFAW = 10
			p.TRRD = 2
			adjusted = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !adjusted {
		t.Error("AdjustTiming hook never invoked")
	}
}

func TestEmptyWorkloadRejected(t *testing.T) {
	if _, err := Run(Config{Workload: workload.Workload{Name: "empty"}}); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestWithDefaults(t *testing.T) {
	cfg := (Config{Workload: smallWorkload()}).WithDefaults()
	if cfg.Channels != 2 || cfg.SubarraysPerBank != 8 ||
		cfg.Density != timing.Gb8 || cfg.Retention != timing.Retention32ms {
		t.Errorf("defaults diverge from Table 1: %+v", cfg)
	}
	if cfg.Sched.ReadQueueCap != 64 || cfg.Sched.WriteLow != 32 {
		t.Errorf("scheduler defaults diverge from Table 1: %+v", cfg.Sched)
	}
}
