package exp

import (
	"fmt"
	"strings"

	"dsarp/internal/core"
	"dsarp/internal/metrics"
	"dsarp/internal/stats"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// Every table in this file is one assemble function that computes the
// table from simulation results read through a lookup (see lookup): the
// registry derives the table's spec list from the same function, so the
// two cannot disagree. The assembly loops are kept line-for-line
// equivalent to the historical interleaved code, so the rendered tables
// match the golden fixtures byte for byte.

// --- Table 2: max & gmean WS improvement over both baselines ---

// Table2Row is one (density, mechanism) entry.
type Table2Row struct {
	Density   timing.Density
	Mechanism core.Kind
	MaxPB     float64 // max % over REFpb
	MaxAB     float64
	GmeanPB   float64
	GmeanAB   float64
}

// Table2Result mirrors the paper's Table 2.
type Table2Result struct{ Rows []Table2Row }

// Table2Mechanisms are the rows of the paper's Table 2.
func Table2Mechanisms() []core.Kind {
	return []core.Kind{core.KindDARP, core.KindSARPpb, core.KindDSARP}
}

func assembleTable2(r *Runner, res lookup) Table2Result {
	var out Table2Result
	for _, d := range r.opts.Densities {
		ab := res.wsSeries(r, r.mixes, core.KindREFab, d, "")
		pb := res.wsSeries(r, r.mixes, core.KindREFpb, d, "")
		for _, k := range Table2Mechanisms() {
			ws := res.wsSeries(r, r.mixes, k, d, "")
			rAB := stats.Ratios(ws, ab)
			rPB := stats.Ratios(ws, pb)
			out.Rows = append(out.Rows, Table2Row{
				Density:   d,
				Mechanism: k,
				MaxPB:     stats.PctImprovement(stats.Max(rPB)),
				MaxAB:     stats.PctImprovement(stats.Max(rAB)),
				GmeanPB:   stats.PctImprovement(stats.Gmean(rPB)),
				GmeanAB:   stats.PctImprovement(stats.Gmean(rAB)),
			})
		}
	}
	return out
}

func (t Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — WS improvement (%%):\n%8s %-9s %9s %9s %9s %9s\n",
		"density", "mech", "max/PB", "max/AB", "gmean/PB", "gmean/AB")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%8s %-9s %9.1f %9.1f %9.1f %9.1f\n",
			row.Density, row.Mechanism, row.MaxPB, row.MaxAB, row.GmeanPB, row.GmeanAB)
	}
	return b.String()
}

// --- §6.1.2: DARP performance breakdown ---

// BreakdownRow is one density of the DARP component breakdown.
type BreakdownRow struct {
	Density timing.Density
	// OoOGmean/OoOMax: out-of-order refresh alone, % over REFab.
	OoOGmean, OoOMax float64
	// WRGmean: additional % from adding write-refresh parallelization.
	WRGmean float64
	// FullGmean: complete DARP % over REFab.
	FullGmean float64
}

// BreakdownResult is the §6.1.2 component analysis.
type BreakdownResult struct{ Rows []BreakdownRow }

func assembleBreakdown(r *Runner, res lookup) BreakdownResult {
	var out BreakdownResult
	for _, d := range r.opts.Densities {
		ab := res.wsSeries(r, r.mixes, core.KindREFab, d, "")
		ooo := res.wsSeries(r, r.mixes, core.KindDARPOoO, d, "")
		full := res.wsSeries(r, r.mixes, core.KindDARP, d, "")
		rowOoO := stats.Ratios(ooo, ab)
		out.Rows = append(out.Rows, BreakdownRow{
			Density:   d,
			OoOGmean:  stats.PctImprovement(stats.Gmean(rowOoO)),
			OoOMax:    stats.PctImprovement(stats.Max(rowOoO)),
			WRGmean:   stats.PctImprovement(stats.Gmean(stats.Ratios(full, ooo))),
			FullGmean: stats.PctImprovement(stats.Gmean(stats.Ratios(full, ab))),
		})
	}
	return out
}

func (t BreakdownResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§6.1.2 — DARP breakdown over REFab (%%):\n%8s %10s %9s %10s %10s\n",
		"density", "ooo gmean", "ooo max", "+wr gmean", "full gmean")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%8s %10.1f %9.1f %10.1f %10.1f\n",
			row.Density, row.OoOGmean, row.OoOMax, row.WRGmean, row.FullGmean)
	}
	return b.String()
}

// --- Table 3: core-count sensitivity ---

// Table3Row is one core count's DSARP-vs-REFab deltas.
type Table3Row struct {
	Cores          int
	WSImprove      float64
	HSImprove      float64
	MaxSlowdownRed float64
	EPARed         float64
}

// Table3Result mirrors the paper's Table 3 (32 Gb, intensive workloads).
type Table3Result struct{ Rows []Table3Row }

// table3CoreCounts are the paper's evaluated system sizes.
func table3CoreCounts() []int { return []int{2, 4, 8} }

// table3Mixes derives the intensive workload set for one core count.
func table3Mixes(r *Runner, cores int) []workload.Workload {
	return workload.IntensiveMixes(r.opts.Sensitivity, cores, r.opts.Seed+1)
}

func assembleTable3(r *Runner, res lookup) Table3Result {
	var out Table3Result
	d := timing.Gb32
	for _, cores := range table3CoreCounts() {
		mixes := table3Mixes(r, cores)
		wsR := make([]float64, len(mixes))
		hsR := make([]float64, len(mixes))
		msR := make([]float64, len(mixes))
		epaR := make([]float64, len(mixes))
		for i, wl := range mixes {
			alone := res.aloneIPCs(r, wl)
			variant := fmt.Sprintf("cores%d", cores)
			resAB := res.get(r, wl, core.KindREFab, d, variant)
			resDS := res.get(r, wl, core.KindDSARP, d, variant)
			wsR[i] = metrics.WeightedSpeedup(resDS.IPC, alone) / metrics.WeightedSpeedup(resAB.IPC, alone)
			hsR[i] = metrics.HarmonicSpeedup(resDS.IPC, alone) / metrics.HarmonicSpeedup(resAB.IPC, alone)
			msR[i] = metrics.MaxSlowdown(resDS.IPC, alone) / metrics.MaxSlowdown(resAB.IPC, alone)
			epaR[i] = resDS.EnergyPerAccess() / resAB.EnergyPerAccess()
		}
		out.Rows = append(out.Rows, Table3Row{
			Cores:          cores,
			WSImprove:      stats.PctImprovement(stats.Gmean(wsR)),
			HSImprove:      stats.PctImprovement(stats.Gmean(hsR)),
			MaxSlowdownRed: (1 - stats.Gmean(msR)) * 100,
			EPARed:         (1 - stats.Gmean(epaR)) * 100,
		})
	}
	return out
}

func (t Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — DSARP vs REFab, 32Gb intensive (%%):\n%6s %8s %8s %12s %8s\n",
		"cores", "WS", "HS", "maxslow red", "EPA red")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%6d %8.1f %8.1f %12.1f %8.1f\n",
			row.Cores, row.WSImprove, row.HSImprove, row.MaxSlowdownRed, row.EPARed)
	}
	return b.String()
}

// --- Table 4: tFAW/tRRD sensitivity ---

// Table4Result mirrors the paper's Table 4: SARPpb over REFpb as the
// activation window shrinks or grows (tRRD scales as tFAW/5).
type Table4Result struct {
	TFAW    []int
	Improve []float64
}

func table4TFAWs() []int { return []int{5, 10, 15, 20, 25, 30} }

func assembleTable4(r *Runner, res lookup) Table4Result {
	out := Table4Result{TFAW: table4TFAWs()}
	d := timing.Gb32
	for _, tfaw := range out.TFAW {
		variant := fmt.Sprintf("tfaw%d", tfaw)
		ratios := make([]float64, len(r.sensitive))
		for i, wl := range r.sensitive {
			sp := res.ws(r, wl, core.KindSARPpb, d, variant)
			pb := res.ws(r, wl, core.KindREFpb, d, variant)
			ratios[i] = sp / pb
		}
		out.Improve = append(out.Improve, stats.PctImprovement(stats.Gmean(ratios)))
	}
	return out
}

func (t Table4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4 — SARPpb over REFpb vs tFAW (32Gb, %%):\n%12s", "tFAW/tRRD")
	for _, f := range t.TFAW {
		fmt.Fprintf(&b, " %6d/%d", f, max(1, f/5))
	}
	fmt.Fprintf(&b, "\n%12s", "WS improve")
	for _, v := range t.Improve {
		fmt.Fprintf(&b, " %8.1f", v)
	}
	b.WriteByte('\n')
	return b.String()
}

// --- Table 5: subarrays-per-bank sensitivity ---

// Table5Result mirrors the paper's Table 5: SARPpb over REFpb as the number
// of subarrays per bank grows (0% at one subarray — no parallelization is
// possible — rising toward a plateau).
type Table5Result struct {
	Subarrays []int
	Improve   []float64
}

func table5Subarrays() []int { return []int{1, 2, 4, 8, 16, 32, 64} }

func assembleTable5(r *Runner, res lookup) Table5Result {
	out := Table5Result{Subarrays: table5Subarrays()}
	d := timing.Gb32
	for _, subs := range out.Subarrays {
		variant := fmt.Sprintf("subs%d", subs)
		ratios := make([]float64, len(r.sensitive))
		for i, wl := range r.sensitive {
			sp := res.ws(r, wl, core.KindSARPpb, d, variant)
			pb := res.ws(r, wl, core.KindREFpb, d, variant)
			ratios[i] = sp / pb
		}
		out.Improve = append(out.Improve, stats.PctImprovement(stats.Gmean(ratios)))
	}
	return out
}

func (t Table5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5 — SARPpb over REFpb vs subarrays/bank (32Gb, %%):\n%12s", "subarrays")
	for _, s := range t.Subarrays {
		fmt.Fprintf(&b, " %6d", s)
	}
	fmt.Fprintf(&b, "\n%12s", "WS improve")
	for _, v := range t.Improve {
		fmt.Fprintf(&b, " %6.1f", v)
	}
	b.WriteByte('\n')
	return b.String()
}

// --- Table 6: 64 ms retention ---

// Table6Row is one density of the 64 ms retention study.
type Table6Row struct {
	Density timing.Density
	MaxPB   float64
	MaxAB   float64
	GmeanPB float64
	GmeanAB float64
}

// Table6Result mirrors the paper's Table 6: DSARP at 64 ms retention.
type Table6Result struct{ Rows []Table6Row }

func assembleTable6(r *Runner, res lookup) Table6Result {
	var out Table6Result
	for _, d := range r.opts.Densities {
		ab := res.wsSeries(r, r.mixes, core.KindREFab, d, "ret64")
		pb := res.wsSeries(r, r.mixes, core.KindREFpb, d, "ret64")
		ds := res.wsSeries(r, r.mixes, core.KindDSARP, d, "ret64")
		rAB := stats.Ratios(ds, ab)
		rPB := stats.Ratios(ds, pb)
		out.Rows = append(out.Rows, Table6Row{
			Density: d,
			MaxPB:   stats.PctImprovement(stats.Max(rPB)),
			MaxAB:   stats.PctImprovement(stats.Max(rAB)),
			GmeanPB: stats.PctImprovement(stats.Gmean(rPB)),
			GmeanAB: stats.PctImprovement(stats.Gmean(rAB)),
		})
	}
	return out
}

func (t Table6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6 — DSARP at 64ms retention (%%):\n%8s %9s %9s %9s %9s\n",
		"density", "max/PB", "max/AB", "gmean/PB", "gmean/AB")
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%8s %9.1f %9.1f %9.1f %9.1f\n",
			row.Density, row.MaxPB, row.MaxAB, row.GmeanPB, row.GmeanAB)
	}
	return b.String()
}
