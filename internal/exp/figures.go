package exp

import (
	"fmt"
	"sort"
	"strings"

	"dsarp/internal/core"
	"dsarp/internal/stats"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// Like tables.go, every figure here is registered declaratively: a specs
// enumeration and a pure assembly from a Results map.

// --- Fig. 5: refresh latency trend ---

// Fig5Result is the tRFCab scaling trend (paper Fig. 5).
type Fig5Result struct{ Points []timing.TrendPoint }

// fig5Specs is empty: the trend is analytic, no simulation backs it. The
// registry still carries it so every published artifact has one uniform
// enumerate→assemble shape (a fleet run of fig5 is a zero-spec job).
func fig5Specs(*Runner) []SimSpec { return nil }

// assembleFig5 regenerates the refresh latency trend: two linear
// projections of tRFCab versus chip density.
func assembleFig5(*Runner, Results) Fig5Result { return Fig5Result{Points: timing.TRFCTrend()} }

func (f Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — tRFCab (ns) vs density:\n%8s %12s %12s\n", "Gb", "Projection1", "Projection2")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%8.0f %12.1f %12.1f\n", p.DensityGb, p.Projection1, p.Projection2)
	}
	return b.String()
}

// --- Fig. 6 / Fig. 7: performance loss due to refresh ---

// LossRow is one density's performance losses versus the no-refresh ideal.
type LossRow struct {
	Density    timing.Density
	ByCategory map[int]float64 // category -> loss %
	Overall    float64         // gmean loss % across all workloads
}

// Fig6Result is the REFab performance degradation breakdown (paper Fig. 6).
type Fig6Result struct {
	Categories []int
	Rows       []LossRow
}

func fig6Specs(r *Runner) []SimSpec {
	l := newSpecList()
	for _, d := range r.opts.Densities {
		for _, wl := range r.mixes {
			l.addWS(r, wl, core.KindREFab, d, "")
			l.addWS(r, wl, core.KindNoRef, d, "")
		}
	}
	return l.list()
}

func assembleFig6(r *Runner, res Results) Fig6Result {
	out := Fig6Result{Categories: workload.Categories()}
	for _, d := range r.opts.Densities {
		ratio := make([]float64, len(r.mixes))
		for i, wl := range r.mixes {
			ab := res.ws(r, wl, core.KindREFab, d, "")
			ideal := res.ws(r, wl, core.KindNoRef, d, "")
			ratio[i] = ab / ideal
		}
		row := LossRow{Density: d, ByCategory: map[int]float64{}}
		var all []float64
		for _, cat := range out.Categories {
			var ratios []float64
			for i, wl := range r.mixes {
				if wl.Category != cat {
					continue
				}
				ratios = append(ratios, ratio[i])
			}
			row.ByCategory[cat] = (1 - stats.Gmean(ratios)) * 100
			all = append(all, ratios...)
		}
		row.Overall = (1 - stats.Gmean(all)) * 100
		out.Rows = append(out.Rows, row)
	}
	return out
}

func (f Fig6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6 — performance loss due to REFab vs ideal (%%):\n%8s", "density")
	for _, c := range f.Categories {
		fmt.Fprintf(&b, " %6d%%", c)
	}
	fmt.Fprintf(&b, " %7s\n", "gmean")
	for _, row := range f.Rows {
		fmt.Fprintf(&b, "%8s", row.Density)
		for _, c := range f.Categories {
			fmt.Fprintf(&b, " %7.1f", row.ByCategory[c])
		}
		fmt.Fprintf(&b, " %7.1f\n", row.Overall)
	}
	return b.String()
}

// Fig7Result compares REFab and REFpb losses (paper Fig. 7).
type Fig7Result struct {
	Densities []timing.Density
	LossAB    []float64
	LossPB    []float64
}

func fig7Specs(r *Runner) []SimSpec {
	l := newSpecList()
	for _, d := range r.opts.Densities {
		for _, wl := range r.mixes {
			l.addWS(r, wl, core.KindNoRef, d, "")
			l.addWS(r, wl, core.KindREFab, d, "")
			l.addWS(r, wl, core.KindREFpb, d, "")
		}
	}
	return l.list()
}

func assembleFig7(r *Runner, res Results) Fig7Result {
	out := Fig7Result{Densities: r.opts.Densities}
	for _, d := range r.opts.Densities {
		ab := make([]float64, len(r.mixes))
		pb := make([]float64, len(r.mixes))
		for i, wl := range r.mixes {
			ideal := res.ws(r, wl, core.KindNoRef, d, "")
			ab[i] = res.ws(r, wl, core.KindREFab, d, "") / ideal
			pb[i] = res.ws(r, wl, core.KindREFpb, d, "") / ideal
		}
		out.LossAB = append(out.LossAB, (1-stats.Gmean(ab))*100)
		out.LossPB = append(out.LossPB, (1-stats.Gmean(pb))*100)
	}
	return out
}

func (f Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — performance loss vs ideal (%%):\n%8s %8s %8s\n", "density", "REFab", "REFpb")
	for i, d := range f.Densities {
		fmt.Fprintf(&b, "%8s %8.1f %8.1f\n", d, f.LossAB[i], f.LossPB[i])
	}
	return b.String()
}

// --- Fig. 12: sorted per-workload improvement curves ---

// Fig12Mechanisms are the mechanisms plotted in the paper's Fig. 12.
func Fig12Mechanisms() []core.Kind {
	return []core.Kind{core.KindREFpb, core.KindDARP, core.KindSARPpb, core.KindDSARP}
}

// Fig12Curve is one workload's normalized WS under each mechanism.
type Fig12Curve struct {
	Workload string
	Norm     map[core.Kind]float64 // WS / WS(REFab)
}

// Fig12Result is one density's sorted curves.
type Fig12Result struct {
	Density timing.Density
	Curves  []Fig12Curve // sorted by DARP improvement, as in the paper
}

func fig12Specs(r *Runner, d timing.Density) []SimSpec {
	l := newSpecList()
	for _, wl := range r.mixes {
		l.addWS(r, wl, core.KindREFab, d, "")
		for _, k := range Fig12Mechanisms() {
			l.addWS(r, wl, k, d, "")
		}
	}
	return l.list()
}

func assembleFig12(r *Runner, res Results, d timing.Density) Fig12Result {
	out := Fig12Result{Density: d}
	out.Curves = make([]Fig12Curve, len(r.mixes))
	for i, wl := range r.mixes {
		ab := res.ws(r, wl, core.KindREFab, d, "")
		c := Fig12Curve{Workload: wl.Name, Norm: map[core.Kind]float64{}}
		for _, k := range Fig12Mechanisms() {
			c.Norm[k] = res.ws(r, wl, k, d, "") / ab
		}
		out.Curves[i] = c
	}
	sort.Slice(out.Curves, func(i, j int) bool {
		return out.Curves[i].Norm[core.KindDARP] < out.Curves[j].Norm[core.KindDARP]
	})
	return out
}

func (f Fig12Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 12 (%s) — WS normalized to REFab, sorted by DARP:\n%-16s", f.Density, "workload")
	for _, k := range Fig12Mechanisms() {
		fmt.Fprintf(&b, " %8s", k)
	}
	b.WriteByte('\n')
	for _, c := range f.Curves {
		fmt.Fprintf(&b, "%-16s", c.Workload)
		for _, k := range Fig12Mechanisms() {
			fmt.Fprintf(&b, " %8.3f", c.Norm[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig12Set bundles the per-density Fig. 12 panels the registry entry
// renders — one per runner density, in order.
type Fig12Set struct{ Figs []Fig12Result }

// fig12AllSpecs enumerates Fig. 12 across every runner density.
func fig12AllSpecs(r *Runner) []SimSpec {
	l := newSpecList()
	for _, d := range r.opts.Densities {
		for _, s := range fig12Specs(r, d) {
			l.add(s)
		}
	}
	return l.list()
}

func assembleFig12Set(r *Runner, res Results) Fig12Set {
	var out Fig12Set
	for _, d := range r.opts.Densities {
		out.Figs = append(out.Figs, assembleFig12(r, res, d))
	}
	return out
}

// String concatenates the panels the way cmd/experiments always has: one
// blank line between densities.
func (f Fig12Set) String() string {
	parts := make([]string, len(f.Figs))
	for i, sub := range f.Figs {
		parts[i] = sub.String()
	}
	return strings.Join(parts, "\n")
}

// CSVParts exposes each density's panel for per-file CSV export.
func (f Fig12Set) CSVParts() []CSVWritable {
	out := make([]CSVWritable, len(f.Figs))
	for i, sub := range f.Figs {
		out[i] = sub
	}
	return out
}

// --- Fig. 13: average improvement of all mechanisms ---

// Fig13Mechanisms are the bars of the paper's Fig. 13.
func Fig13Mechanisms() []core.Kind {
	return []core.Kind{core.KindREFpb, core.KindElastic, core.KindDARP,
		core.KindSARPab, core.KindSARPpb, core.KindDSARP, core.KindNoRef}
}

// Fig13Result is the average WS improvement over REFab per mechanism.
type Fig13Result struct {
	Densities []timing.Density
	WSab      []float64               // absolute REFab WS per density
	Improve   map[core.Kind][]float64 // % over REFab, indexed by density
}

func fig13Specs(r *Runner) []SimSpec {
	l := newSpecList()
	for _, d := range r.opts.Densities {
		for _, wl := range r.mixes {
			l.addWS(r, wl, core.KindREFab, d, "")
		}
		for _, k := range Fig13Mechanisms() {
			for _, wl := range r.mixes {
				l.addWS(r, wl, k, d, "")
			}
		}
	}
	return l.list()
}

func assembleFig13(r *Runner, res Results) Fig13Result {
	out := Fig13Result{Densities: r.opts.Densities, Improve: map[core.Kind][]float64{}}
	for _, d := range r.opts.Densities {
		ab := res.wsSeries(r, r.mixes, core.KindREFab, d, "")
		out.WSab = append(out.WSab, stats.Mean(ab))
		for _, k := range Fig13Mechanisms() {
			ws := res.wsSeries(r, r.mixes, k, d, "")
			imp := stats.PctImprovement(stats.Gmean(stats.Ratios(ws, ab)))
			out.Improve[k] = append(out.Improve[k], imp)
		}
	}
	return out
}

func (f Fig13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 13 — WS improvement over REFab (%%):\n%-9s", "mech")
	for _, d := range f.Densities {
		fmt.Fprintf(&b, " %7s", d)
	}
	b.WriteByte('\n')
	for _, k := range Fig13Mechanisms() {
		fmt.Fprintf(&b, "%-9s", k)
		for i := range f.Densities {
			fmt.Fprintf(&b, " %7.1f", f.Improve[k][i])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(REFab absolute WS per density:")
	for i, d := range f.Densities {
		fmt.Fprintf(&b, " %s=%.2f", d, f.WSab[i])
	}
	fmt.Fprintf(&b, ")\n")
	return b.String()
}

// --- Fig. 14: energy per access ---

// Fig14Mechanisms are the bars of the paper's Fig. 14.
func Fig14Mechanisms() []core.Kind {
	return []core.Kind{core.KindREFab, core.KindREFpb, core.KindElastic, core.KindDARP,
		core.KindSARPab, core.KindSARPpb, core.KindDSARP, core.KindNoRef}
}

// Fig14Result is energy per access by mechanism and density.
type Fig14Result struct {
	Densities      []timing.Density
	EPA            map[core.Kind][]float64 // nJ per access
	DSARPReduction []float64               // % vs REFab, the paper's callout
}

// fig14Specs needs no alone runs: energy per access is not WS-normalized.
func fig14Specs(r *Runner) []SimSpec {
	l := newSpecList()
	for _, d := range r.opts.Densities {
		for _, k := range Fig14Mechanisms() {
			for _, wl := range r.mixes {
				l.addRun(r, wl, k, d, "")
			}
		}
	}
	return l.list()
}

func assembleFig14(r *Runner, res Results) Fig14Result {
	out := Fig14Result{Densities: r.opts.Densities, EPA: map[core.Kind][]float64{}}
	for di, d := range r.opts.Densities {
		for _, k := range Fig14Mechanisms() {
			vals := make([]float64, len(r.mixes))
			for i, wl := range r.mixes {
				vals[i] = res.get(r, wl, k, d, "").EnergyPerAccess()
			}
			out.EPA[k] = append(out.EPA[k], stats.Mean(vals))
		}
		red := (1 - out.EPA[core.KindDSARP][di]/out.EPA[core.KindREFab][di]) * 100
		out.DSARPReduction = append(out.DSARPReduction, red)
	}
	return out
}

func (f Fig14Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 14 — energy per access (nJ):\n%-9s", "mech")
	for _, d := range f.Densities {
		fmt.Fprintf(&b, " %7s", d)
	}
	b.WriteByte('\n')
	for _, k := range Fig14Mechanisms() {
		fmt.Fprintf(&b, "%-9s", k)
		for i := range f.Densities {
			fmt.Fprintf(&b, " %7.2f", f.EPA[k][i])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "DSARP reduction vs REFab (%%):")
	for i, d := range f.Densities {
		fmt.Fprintf(&b, " %s=%.1f", d, f.DSARPReduction[i])
	}
	b.WriteByte('\n')
	return b.String()
}

// --- Fig. 15: DSARP improvement by memory intensity ---

// Fig15Result is DSARP's WS gain by intensity category.
type Fig15Result struct {
	Categories []int
	Densities  []timing.Density
	OverAB     map[int][]float64 // category -> per-density % over REFab
	OverPB     map[int][]float64
}

func fig15Specs(r *Runner) []SimSpec {
	l := newSpecList()
	for _, d := range r.opts.Densities {
		for _, wl := range r.mixes {
			l.addWS(r, wl, core.KindDSARP, d, "")
			l.addWS(r, wl, core.KindREFab, d, "")
			l.addWS(r, wl, core.KindREFpb, d, "")
		}
	}
	return l.list()
}

func assembleFig15(r *Runner, res Results) Fig15Result {
	out := Fig15Result{
		Categories: workload.Categories(),
		Densities:  r.opts.Densities,
		OverAB:     map[int][]float64{},
		OverPB:     map[int][]float64{},
	}
	for _, d := range r.opts.Densities {
		abR := make([]float64, len(r.mixes))
		pbR := make([]float64, len(r.mixes))
		for i, wl := range r.mixes {
			ds := res.ws(r, wl, core.KindDSARP, d, "")
			abR[i] = ds / res.ws(r, wl, core.KindREFab, d, "")
			pbR[i] = ds / res.ws(r, wl, core.KindREFpb, d, "")
		}
		for _, cat := range out.Categories {
			var ab, pb []float64
			for i, wl := range r.mixes {
				if wl.Category != cat {
					continue
				}
				ab = append(ab, abR[i])
				pb = append(pb, pbR[i])
			}
			out.OverAB[cat] = append(out.OverAB[cat], stats.PctImprovement(stats.Gmean(ab)))
			out.OverPB[cat] = append(out.OverPB[cat], stats.PctImprovement(stats.Gmean(pb)))
		}
	}
	return out
}

func (f Fig15Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 15 — DSARP WS improvement by intensity (%%):\n")
	for _, base := range []string{"REFab", "REFpb"} {
		fmt.Fprintf(&b, "vs %s:\n%10s", base, "category")
		for _, d := range f.Densities {
			fmt.Fprintf(&b, " %7s", d)
		}
		b.WriteByte('\n')
		for _, c := range f.Categories {
			fmt.Fprintf(&b, "%9d%%", c)
			vals := f.OverAB[c]
			if base == "REFpb" {
				vals = f.OverPB[c]
			}
			for i := range f.Densities {
				fmt.Fprintf(&b, " %7.1f", vals[i])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// --- Fig. 16: DDR4 FGR and adaptive refresh ---

// Fig16Mechanisms are the bars of the paper's Fig. 16.
func Fig16Mechanisms() []core.Kind {
	return []core.Kind{core.KindREFab, core.KindFGR2x, core.KindFGR4x, core.KindAR, core.KindDSARP}
}

// Fig16Result is WS normalized to REFab.
type Fig16Result struct {
	Densities []timing.Density
	Norm      map[core.Kind][]float64
}

func fig16Specs(r *Runner) []SimSpec {
	l := newSpecList()
	for _, d := range r.opts.Densities {
		for _, wl := range r.mixes {
			l.addWS(r, wl, core.KindREFab, d, "")
		}
		for _, k := range Fig16Mechanisms() {
			for _, wl := range r.mixes {
				l.addWS(r, wl, k, d, "")
			}
		}
	}
	return l.list()
}

func assembleFig16(r *Runner, res Results) Fig16Result {
	out := Fig16Result{Densities: r.opts.Densities, Norm: map[core.Kind][]float64{}}
	for _, d := range r.opts.Densities {
		ab := res.wsSeries(r, r.mixes, core.KindREFab, d, "")
		for _, k := range Fig16Mechanisms() {
			ws := res.wsSeries(r, r.mixes, k, d, "")
			out.Norm[k] = append(out.Norm[k], stats.Gmean(stats.Ratios(ws, ab)))
		}
	}
	return out
}

func (f Fig16Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 16 — WS normalized to REFab:\n%-9s", "mech")
	for _, d := range f.Densities {
		fmt.Fprintf(&b, " %7s", d)
	}
	b.WriteByte('\n')
	for _, k := range Fig16Mechanisms() {
		fmt.Fprintf(&b, "%-9s", k)
		for i := range f.Densities {
			fmt.Fprintf(&b, " %7.3f", f.Norm[k][i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
