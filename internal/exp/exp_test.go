package exp

import (
	"fmt"
	"strings"
	"testing"

	"dsarp/internal/core"
	"dsarp/internal/sim"
	"dsarp/internal/timing"
)

// tinyOpts keeps experiment tests fast: one workload per category, short
// windows, two densities.
func tinyOpts() Options {
	return Options{
		PerCategory: 1,
		Sensitivity: 1,
		Cores:       4,
		Warmup:      10_000,
		Measure:     40_000,
		Seed:        42,
		Densities:   []timing.Density{timing.Gb8, timing.Gb32},
	}
}

// runAs runs a registry experiment and returns its concrete result.
func runAs[T fmt.Stringer](t testing.TB, r *Runner, name string) T {
	t.Helper()
	out, err := r.RunExperiment(name)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := out.(T)
	if !ok {
		t.Fatalf("%s: result is %T", name, out)
	}
	return res
}

// runOne runs one simulation through RunSpecInfo, failing the test on error.
func runOne(t testing.TB, r *Runner, spec SimSpec) (sim.Result, RunSource) {
	t.Helper()
	res, info, err := r.RunSpecInfo(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res, info.Source
}

func TestFig5MatchesTimingPackage(t *testing.T) {
	r := NewRunner(tinyOpts())
	f := runAs[Fig5Result](t, r, "fig5")
	if len(f.Points) == 0 {
		t.Fatal("no trend points")
	}
	last := f.Points[len(f.Points)-1]
	if last.DensityGb != 64 || last.Projection2 != 1610 {
		t.Errorf("trend endpoint = %+v, want 64Gb at 1610ns", last)
	}
	if !strings.Contains(f.String(), "Projection2") {
		t.Error("Fig5 String lacks headers")
	}
}

func TestFig7Shape(t *testing.T) {
	r := NewRunner(tinyOpts())
	f := runAs[Fig7Result](t, r, "fig7")
	for i := range f.Densities {
		if f.LossAB[i] <= 0 {
			t.Errorf("%v: REFab shows no loss", f.Densities[i])
		}
		if f.LossPB[i] >= f.LossAB[i] {
			t.Errorf("%v: REFpb (%.1f%%) should lose less than REFab (%.1f%%)",
				f.Densities[i], f.LossPB[i], f.LossAB[i])
		}
	}
	// Loss grows with density.
	if f.LossAB[len(f.LossAB)-1] <= f.LossAB[0] {
		t.Errorf("REFab loss should grow with density: %v", f.LossAB)
	}
}

func TestFig13Ordering(t *testing.T) {
	r := NewRunner(tinyOpts())
	f := runAs[Fig13Result](t, r, "fig13")
	last := len(f.Densities) - 1 // 32Gb: the clearest separation
	noref := f.Improve[core.KindNoRef][last]
	dsarp := f.Improve[core.KindDSARP][last]
	refpb := f.Improve[core.KindREFpb][last]
	elastic := f.Improve[core.KindElastic][last]
	if !(noref >= dsarp && dsarp > elastic) {
		t.Errorf("ordering broken: NoREF=%.1f DSARP=%.1f Elastic=%.1f", noref, dsarp, elastic)
	}
	if refpb <= elastic {
		t.Errorf("REFpb (%.1f) should beat Elastic (%.1f) at 32Gb", refpb, elastic)
	}
}

func TestTable2Positive(t *testing.T) {
	r := NewRunner(tinyOpts())
	tab := runAs[Table2Result](t, r, "table2")
	if len(tab.Rows) != len(tinyOpts().Densities)*len(Table2Mechanisms()) {
		t.Fatalf("row count = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row.GmeanAB <= 0 {
			t.Errorf("%v/%v: no improvement over REFab (%.2f%%)", row.Density, row.Mechanism, row.GmeanAB)
		}
		if row.MaxAB < row.GmeanAB {
			t.Errorf("%v/%v: max < gmean", row.Density, row.Mechanism)
		}
	}
}

func TestFig16FGRWorseThanREFab(t *testing.T) {
	r := NewRunner(tinyOpts())
	f := runAs[Fig16Result](t, r, "fig16")
	last := len(f.Densities) - 1
	if f.Norm[core.KindREFab][last] != 1.0 {
		t.Fatalf("REFab must normalize to 1, got %v", f.Norm[core.KindREFab][last])
	}
	if f.Norm[core.KindFGR4x][last] >= 1.0 {
		t.Errorf("FGR4x should underperform REFab, got %.3f", f.Norm[core.KindFGR4x][last])
	}
	if f.Norm[core.KindDSARP][last] <= 1.0 {
		t.Errorf("DSARP should outperform REFab, got %.3f", f.Norm[core.KindDSARP][last])
	}
	if f.Norm[core.KindDSARP][last] <= f.Norm[core.KindFGR2x][last] {
		t.Error("DSARP should beat FGR")
	}
}

func TestTable5TrendTiny(t *testing.T) {
	r := NewRunner(tinyOpts())
	tab := runAs[Table5Result](t, r, "table5")
	if tab.Improve[0] > 1.5 {
		t.Errorf("1 subarray should show ~no gain, got %.1f%%", tab.Improve[0])
	}
	if tab.Improve[len(tab.Improve)-1] <= tab.Improve[0] {
		t.Errorf("gain should grow with subarrays: %v", tab.Improve)
	}
}

func TestRunCaching(t *testing.T) {
	opts := tinyOpts()
	runs := 0
	opts.Progress = func(done int, _ string) { runs = done }
	r := NewRunner(opts)
	wl := r.Mixes()[0]
	runOne(t, r, r.specFor(wl, core.KindREFab, timing.Gb8, ""))
	after := runs
	if _, src := runOne(t, r, r.specFor(wl, core.KindREFab, timing.Gb8, "")); src != SourceMemory || runs != after {
		t.Errorf("identical run not served from cache (source %v)", src)
	}
	runOne(t, r, r.specFor(wl, core.KindREFab, timing.Gb8, "ret64")) // distinct variant
	if runs != after+1 {
		t.Error("variant should miss the cache")
	}
}

func TestAloneIPCCached(t *testing.T) {
	r := NewRunner(tinyOpts())
	spec := r.AloneSpec(r.Mixes()[0].Benchmarks[0])
	a, _ := runOne(t, r, spec)
	b, src := runOne(t, r, spec)
	if src != SourceMemory {
		t.Errorf("second alone run source = %v, want memory", src)
	}
	if a.IPC[0] != b.IPC[0] || a.IPC[0] <= 0 {
		t.Errorf("alone IPC unstable or nonpositive: %v vs %v", a.IPC[0], b.IPC[0])
	}
}

func TestStringersProduceTables(t *testing.T) {
	r := NewRunner(tinyOpts())
	for _, name := range []string{"fig5", "fig7", "fig12", "table2"} {
		out, err := r.RunExperiment(name)
		if err != nil {
			t.Fatal(err)
		}
		if s := out.String(); len(strings.Split(s, "\n")) < 3 {
			t.Errorf("%s output suspiciously short:\n%s", name, s)
		}
	}
}
