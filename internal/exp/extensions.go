package exp

import (
	"fmt"
	"strings"

	"dsarp/internal/core"
	"dsarp/internal/stats"
	"dsarp/internal/timing"
)

// PausingResult compares refresh pausing (Nair et al., HPCA 2013 — the §7
// related mechanism, implemented as an extension) with the paper's
// mechanisms, normalized to REFab. Expected shape: pausing beats REFab (it
// yields to demand at row-granular pausing points) but falls short of
// DSARP, which overlaps rather than merely reorders refresh work.
type PausingResult struct {
	Densities []timing.Density
	Norm      map[core.Kind][]float64
}

// PausingMechanisms are the columns of the pausing comparison.
func PausingMechanisms() []core.Kind {
	return []core.Kind{core.KindREFab, core.KindPause, core.KindDARP,
		core.KindDSARP, core.KindNoRef}
}

func pausingSpecs(r *Runner) []SimSpec {
	l := newSpecList()
	for _, d := range r.opts.Densities {
		for _, wl := range r.mixes {
			l.addWS(r, wl, core.KindREFab, d, "")
		}
		for _, k := range PausingMechanisms() {
			for _, wl := range r.mixes {
				l.addWS(r, wl, k, d, "")
			}
		}
	}
	return l.list()
}

func assemblePausing(r *Runner, res Results) PausingResult {
	out := PausingResult{Densities: r.opts.Densities, Norm: map[core.Kind][]float64{}}
	for _, d := range r.opts.Densities {
		ab := res.wsSeries(r, r.mixes, core.KindREFab, d, "")
		for _, k := range PausingMechanisms() {
			ws := res.wsSeries(r, r.mixes, k, d, "")
			out.Norm[k] = append(out.Norm[k], stats.Gmean(stats.Ratios(ws, ab)))
		}
	}
	return out
}

func (p PausingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — refresh pausing vs the paper's mechanisms (WS / REFab):\n%-9s", "mech")
	for _, d := range p.Densities {
		fmt.Fprintf(&b, " %7s", d)
	}
	b.WriteByte('\n')
	for _, k := range PausingMechanisms() {
		fmt.Fprintf(&b, "%-9s", k)
		for i := range p.Densities {
			fmt.Fprintf(&b, " %7.3f", p.Norm[k][i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
