package exp

import (
	"testing"

	"dsarp/internal/core"
	"dsarp/internal/timing"
)

// microOpts is even smaller than tinyOpts: these tests exercise the
// expensive sweeps end to end, checking shape only.
func microOpts() Options {
	return Options{
		PerCategory: 1,
		Sensitivity: 1,
		Cores:       4,
		Warmup:      8_000,
		Measure:     30_000,
		Seed:        42,
		Densities:   []timing.Density{timing.Gb32},
	}
}

func TestFig6LossesPositive(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive sweep")
	}
	r := NewRunner(microOpts())
	f := runAs[Fig6Result](t, r, "fig6")
	for _, row := range f.Rows {
		if row.Overall <= 0 {
			t.Errorf("%v: overall REFab loss %.1f%%, want positive", row.Density, row.Overall)
		}
	}
}

func TestFig14EnergyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive sweep")
	}
	r := NewRunner(microOpts())
	f := runAs[Fig14Result](t, r, "fig14")
	if f.EPA[core.KindNoRef][0] >= f.EPA[core.KindREFab][0] {
		t.Errorf("NoREF energy/access (%.2f) should undercut REFab (%.2f)",
			f.EPA[core.KindNoRef][0], f.EPA[core.KindREFab][0])
	}
	if f.DSARPReduction[0] <= 0 {
		t.Errorf("DSARP should reduce energy per access, got %.1f%%", f.DSARPReduction[0])
	}
}

func TestFig15AllCategoriesImprove(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive sweep")
	}
	r := NewRunner(microOpts())
	f := runAs[Fig15Result](t, r, "fig15")
	for _, cat := range f.Categories {
		if f.OverAB[cat][0] <= 0 {
			t.Errorf("category %d%%: DSARP gain over REFab %.1f%%, want positive", cat, f.OverAB[cat][0])
		}
	}
}

func TestTable3CoreCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive sweep")
	}
	r := NewRunner(microOpts())
	tab := runAs[Table3Result](t, r, "table3")
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 core counts", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row.WSImprove <= 0 {
			t.Errorf("%d cores: DSARP WS improvement %.1f%%, want positive", row.Cores, row.WSImprove)
		}
	}
}

func TestTable4TFAWTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive sweep")
	}
	r := NewRunner(microOpts())
	tab := runAs[Table4Result](t, r, "table4")
	// Paper Table 4: the benefit shrinks as tFAW grows (more ACT headroom
	// means less to gain from parallelization). Check the endpoints.
	if tab.Improve[0] < tab.Improve[len(tab.Improve)-1]-1.5 {
		t.Errorf("tFAW=5 gain (%.1f%%) should be >= tFAW=30 gain (%.1f%%) within noise",
			tab.Improve[0], tab.Improve[len(tab.Improve)-1])
	}
}

func TestTable6Retention64(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive sweep")
	}
	r := NewRunner(microOpts())
	tab := runAs[Table6Result](t, r, "table6")
	for _, row := range tab.Rows {
		if row.GmeanAB <= 0 {
			t.Errorf("%v: DSARP at 64ms should still improve over REFab, got %.1f%%",
				row.Density, row.GmeanAB)
		}
		// At 64 ms the refresh rate halves, so gains should be smaller than
		// the 32 ms case but still positive (paper Table 6 vs Table 2).
	}
}

func TestDARPBreakdownComponents(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive sweep")
	}
	r := NewRunner(microOpts())
	tab := runAs[BreakdownResult](t, r, "breakdown")
	row := tab.Rows[0]
	if row.OoOGmean <= 0 {
		t.Errorf("out-of-order refresh should improve over REFab, got %.1f%%", row.OoOGmean)
	}
	if row.FullGmean <= 0 {
		t.Errorf("full DARP should improve over REFab, got %.1f%%", row.FullGmean)
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive sweep")
	}
	r := NewRunner(microOpts())
	a := runAs[AblationResult](t, r, "ablations")
	if len(a.Rows) != 5 {
		t.Fatalf("ablations = %d, want 5 (D1..D5)", len(a.Rows))
	}
	for _, row := range a.Rows {
		if row.BaseWS <= 0 || row.VariantWS <= 0 {
			t.Errorf("%s: degenerate WS (%.3f / %.3f)", row.Name, row.BaseWS, row.VariantWS)
		}
	}
	// D3: removing the SARP power throttle is an upper bound — the variant
	// must not be dramatically worse than the paper's throttled design.
	for _, row := range a.Rows {
		if row.Name == "D3 sarp-throttle" && row.DeltaPct < -5 {
			t.Errorf("unthrottled SARP should not collapse: %+.2f%%", row.DeltaPct)
		}
	}
}
