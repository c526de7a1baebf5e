package sim

import (
	"testing"

	"dsarp/internal/core"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// BenchmarkStep measures the raw simulator throughput (DRAM cycles per
// second of host time) for an 8-core system under DSARP — the cost that
// bounds how large an experiment campaign can run.
func BenchmarkStep(b *testing.B) {
	wl := workload.IntensiveMixes(1, 8, 1)[0]
	s, err := NewSystem(Config{
		Workload:  wl,
		Mechanism: core.KindDSARP,
		Density:   timing.Gb32,
		Seed:      1,
	}.WithDefaults())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkRunPerMechanism measures a short end-to-end run per mechanism.
func BenchmarkRunPerMechanism(b *testing.B) {
	wl := workload.IntensiveMixes(1, 4, 1)[0]
	for _, k := range []core.Kind{core.KindNoRef, core.KindREFab, core.KindREFpb, core.KindDSARP} {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Run(Config{
					Workload:  wl,
					Mechanism: k,
					Density:   timing.Gb32,
					Seed:      1,
					Warmup:    5_000,
					Measure:   20_000,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngines compares the cycle stepper against the clock-skipping
// event engine across workload intensities; the frac_simulated metric is
// the fraction of cycles the engine actually simulated (1.0 = no skipping).
func BenchmarkEngines(b *testing.B) {
	lib := workload.NonIntensive()
	cases := []struct {
		name string
		wl   workload.Workload
	}{
		{"alone", workload.Workload{Name: "alone", Benchmarks: lib[len(lib)-1:]}},
		{"idleheavy", workload.Workload{Name: "idleheavy", Benchmarks: lib[len(lib)-4:]}},
		{"intensive", workload.IntensiveMixes(1, 4, 1)[0]},
	}
	for _, tc := range cases {
		for _, eng := range []Engine{EngineCycle, EngineEvent} {
			b.Run(tc.name+"/"+eng.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := Run(Config{
						Workload:  tc.wl,
						Mechanism: core.KindREFab,
						Density:   timing.Gb32,
						Seed:      1,
						Warmup:    10_000,
						Measure:   100_000,
						Engine:    eng,
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.SkipRate(), "frac_simulated")
				}
			})
		}
	}
}

// BenchmarkSnapshot measures one checkpoint's serialization as a resumed
// run takes it: the first snapshot of a machine restored at cycle 20k, an
// 8-core mix of read-intensive profiles under DSARP at 32 Gb.
func BenchmarkSnapshot(b *testing.B) {
	names := []string{"libq.scan", "tpch.scan", "mcf.chase", "rand.access",
		"soplex.solve", "libq.scan", "tpch.scan", "mcf.chase"}
	wl := workload.Workload{Name: "sat-read"}
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		wl.Benchmarks = append(wl.Benchmarks, p)
	}
	cfg := Config{
		Workload:  wl,
		Mechanism: core.KindDSARP,
		Density:   timing.Gb32,
		Seed:      1,
		Warmup:    4_000,
		Measure:   16_000,
	}.WithDefaults()
	s, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.RunTo(cfg.Warmup + cfg.Measure)
	data := s.Snapshot()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		restored, err := RestoreSystem(cfg, data)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		snapSink = restored.Snapshot()
	}
}

// snapSink keeps BenchmarkSnapshot's result live.
var snapSink []byte
