// Package dsarp's root benchmark harness regenerates every table and figure
// of the paper's evaluation through the experiment registry
// (exp.Runner.RunExperiment). Each benchmark runs a scaled-down version of
// the experiment and reports its headline numbers as custom metrics; the
// printed tables land in the benchmark log. cmd/experiments reproduces the
// same tables at larger scale.
//
//	go test -bench=. -benchmem
package dsarp

import (
	"fmt"
	"path/filepath"
	"testing"

	"dsarp/internal/core"
	"dsarp/internal/exp"
	"dsarp/internal/golden"
	"dsarp/internal/sim"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// benchOpts keeps each experiment benchmark in the seconds range: one
// workload per category, 4 cores, short windows. Parallelism is pinned to 1
// so single-thread scheduler performance stays comparable across machines
// and against the seed; BenchmarkTable2_Parallel measures the fan-out.
func benchOpts() exp.Options {
	return exp.Options{
		PerCategory: 1,
		Sensitivity: 1,
		Cores:       4,
		Warmup:      10_000,
		Measure:     50_000,
		Seed:        42,
		Parallelism: 1,
		Densities:   []timing.Density{timing.Gb8, timing.Gb32},
	}
}

// runExperiment runs one registry experiment on a fresh runner and returns
// its concrete result.
func runExperiment[T fmt.Stringer](b *testing.B, opts exp.Options, name string) T {
	b.Helper()
	out, err := exp.NewRunner(opts).RunExperiment(name)
	if err != nil {
		b.Fatal(err)
	}
	return out.(T)
}

func BenchmarkFig5_TRFCabTrend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := runExperiment[exp.Fig5Result](b, benchOpts(), "fig5")
		last := f.Points[len(f.Points)-1]
		b.ReportMetric(last.Projection2, "ns@64Gb")
		if i == 0 {
			b.Log("\n" + f.String())
		}
	}
}

func BenchmarkFig6_RefabPerfLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := runExperiment[exp.Fig6Result](b, benchOpts(), "fig6")
		b.ReportMetric(f.Rows[len(f.Rows)-1].Overall, "loss%@32Gb")
		if i == 0 {
			b.Log("\n" + f.String())
		}
	}
}

func BenchmarkFig7_RefabVsRefpb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := runExperiment[exp.Fig7Result](b, benchOpts(), "fig7")
		b.ReportMetric(f.LossAB[len(f.LossAB)-1], "ab_loss%@32Gb")
		b.ReportMetric(f.LossPB[len(f.LossPB)-1], "pb_loss%@32Gb")
		if i == 0 {
			b.Log("\n" + f.String())
		}
	}
}

func BenchmarkFig12_SortedCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Densities = []timing.Density{timing.Gb32}
		f := runExperiment[exp.Fig12Set](b, opts, "fig12").Figs[0]
		best := f.Curves[len(f.Curves)-1].Norm[core.KindDSARP]
		b.ReportMetric((best-1)*100, "best_dsarp%")
		if i == 0 {
			b.Log("\n" + f.String())
		}
	}
}

func BenchmarkTable2_Improvements(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := runExperiment[exp.Table2Result](b, benchOpts(), "table2")
		last := t.Rows[len(t.Rows)-1] // DSARP at the highest density
		b.ReportMetric(last.GmeanAB, "dsarp_gmean%_vs_ab")
		b.ReportMetric(last.GmeanPB, "dsarp_gmean%_vs_pb")
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// BenchmarkTable2_Parallel is BenchmarkTable2_Improvements with the worker
// pool at one worker per CPU; the ratio of the two is the sweep-engine
// speedup on this machine.
func BenchmarkTable2_Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Parallelism = 0 // one worker per CPU
		t := runExperiment[exp.Table2Result](b, opts, "table2")
		last := t.Rows[len(t.Rows)-1]
		b.ReportMetric(last.GmeanAB, "dsarp_gmean%_vs_ab")
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig13_AllMechanisms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := runExperiment[exp.Fig13Result](b, benchOpts(), "fig13")
		last := len(f.Densities) - 1
		b.ReportMetric(f.Improve[core.KindDSARP][last], "dsarp%@32Gb")
		b.ReportMetric(f.Improve[core.KindNoRef][last], "noref%@32Gb")
		if i == 0 {
			b.Log("\n" + f.String())
		}
	}
}

func BenchmarkDARPBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := runExperiment[exp.BreakdownResult](b, benchOpts(), "breakdown")
		last := t.Rows[len(t.Rows)-1]
		b.ReportMetric(last.OoOGmean, "ooo%@32Gb")
		b.ReportMetric(last.WRGmean, "wr_extra%@32Gb")
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig14_Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := runExperiment[exp.Fig14Result](b, benchOpts(), "fig14")
		b.ReportMetric(f.DSARPReduction[len(f.DSARPReduction)-1], "dsarp_epa_red%@32Gb")
		if i == 0 {
			b.Log("\n" + f.String())
		}
	}
}

func BenchmarkFig15_Intensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := runExperiment[exp.Fig15Result](b, benchOpts(), "fig15")
		last := len(f.Densities) - 1
		b.ReportMetric(f.OverAB[100][last], "dsarp%_cat100_vs_ab")
		if i == 0 {
			b.Log("\n" + f.String())
		}
	}
}

func BenchmarkTable3_CoreCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := runExperiment[exp.Table3Result](b, benchOpts(), "table3")
		b.ReportMetric(t.Rows[len(t.Rows)-1].WSImprove, "ws%@8core")
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable4_TFAW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := runExperiment[exp.Table4Result](b, benchOpts(), "table4")
		b.ReportMetric(t.Improve[0], "sarp%_tfaw5")
		b.ReportMetric(t.Improve[len(t.Improve)-1], "sarp%_tfaw30")
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable5_Subarrays(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := runExperiment[exp.Table5Result](b, benchOpts(), "table5")
		b.ReportMetric(t.Improve[0], "sarp%_1sub")
		b.ReportMetric(t.Improve[len(t.Improve)-1], "sarp%_64sub")
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable6_Retention64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := runExperiment[exp.Table6Result](b, benchOpts(), "table6")
		b.ReportMetric(t.Rows[len(t.Rows)-1].GmeanAB, "dsarp_gmean%_vs_ab")
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFig16_FGR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := runExperiment[exp.Fig16Result](b, benchOpts(), "fig16")
		last := len(f.Densities) - 1
		b.ReportMetric(f.Norm[core.KindFGR4x][last], "fgr4x_norm@32Gb")
		b.ReportMetric(f.Norm[core.KindDSARP][last], "dsarp_norm@32Gb")
		if i == 0 {
			b.Log("\n" + f.String())
		}
	}
}

// idleHeavyConfig is a low-intensity, idle-heavy run: four compute-bound
// cores whose long instruction bursts, cache-hit waits, and refresh lockouts
// are provably eventless and skipped wholesale.
func idleHeavyConfig() sim.Config {
	lib := workload.NonIntensive()
	return sim.Config{
		Workload:  workload.Workload{Name: "idleheavy", Benchmarks: lib[len(lib)-4:]},
		Mechanism: core.KindREFab,
		Density:   timing.Gb32,
		Seed:      42,
		Warmup:    20_000,
		Measure:   200_000,
	}
}

// saturatedConfig is the opposite regime: an all-intensive DSARP workload in
// which nearly every cycle carries an event.
func saturatedConfig() sim.Config {
	return sim.Config{
		Workload:  workload.IntensiveMixes(1, 4, 42)[0],
		Mechanism: core.KindDSARP,
		Density:   timing.Gb32,
		Seed:      42,
		Warmup:    20_000,
		Measure:   200_000,
	}
}

// TestSteppedFraction pins how many measured cycles the event engine steps
// in the two regimes the benchmarks below time, as exact counts in
// testdata/stepped_fractions.txt. A change to it moves simulated results:
// scripts/regen.sh rewrites the fixture, and the same change bumps
// exp.SchemaVersion (scripts/check-schema-bump.sh).
func TestSteppedFraction(t *testing.T) {
	var got []byte
	for _, c := range []struct {
		name string
		cfg  sim.Config
	}{
		{"BenchmarkSaturated", saturatedConfig()},
		{"BenchmarkIdleHeavy", idleHeavyConfig()},
	} {
		res, err := sim.Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = fmt.Appendf(got, "%s stepped=%d measured=%d\n", c.name, res.SteppedCycles, res.MeasuredCycles)
	}
	golden.Check(t, filepath.Join("testdata", "stepped_fractions.txt"), got)
}

// BenchmarkIdleHeavy times the clock-skipping engine's win on
// idleHeavyConfig, the regime the event engine targets. The frac_simulated
// metric is the fraction of DRAM cycles actually simulated (1.0 = pure
// cycle stepping).
func BenchmarkIdleHeavy(b *testing.B) {
	cfg := idleHeavyConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SkipRate(), "frac_simulated")
		b.ReportMetric(res.IPC[0], "ipc0")
	}
}

// BenchmarkSaturated times saturatedConfig, in which the clock-skipping
// engine degenerates to plain stepping and performance is set entirely by
// the cost of one stepped cycle (demand scans, DRAM legality probes,
// per-access bookkeeping). frac_simulated close to 1.0 confirms the run
// really exercises the stepped path.
func BenchmarkSaturated(b *testing.B) {
	cfg := saturatedConfig()
	b.ReportAllocs() // the stepped cycle is supposed to be allocation-free
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SkipRate(), "frac_simulated")
		b.ReportMetric(res.IPC[0], "ipc0")
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := runExperiment[exp.AblationResult](b, benchOpts(), "ablations")
		if i == 0 {
			b.Log("\n" + a.String())
		}
	}
}
