package exp

import (
	"fmt"
	"strings"

	"dsarp/internal/core"
	"dsarp/internal/stats"
	"dsarp/internal/timing"
)

// AblationRow compares a design choice against its variant.
type AblationRow struct {
	Name        string
	Description string
	BaseWS      float64 // gmean WS with the paper's design choice
	VariantWS   float64 // gmean WS with the alternative
	DeltaPct    float64 // variant vs base, %
}

// AblationResult is the set of design-choice ablations at 32 Gb on the
// intensive workloads.
type AblationResult struct{ Rows []AblationRow }

// assembleAblations compares each design choice with its variant. The
// variant strings resolve through the variant registry (VariantMod), so
// the same runs are reachable from the HTTP fleet.
func assembleAblations(r *Runner, res lookup) AblationResult {
	d := timing.Gb32
	var out AblationResult

	gm := func(k core.Kind, variant string) float64 {
		return stats.Gmean(res.wsSeries(r, r.sensitive, k, d, variant))
	}

	// D1 — refresh credit bounds: erratum [0,8] vs the original paper's
	// looser rule (effectively 16 postponements). The variant gains little
	// and, as the darp tests show, violates the JEDEC retention ceiling.
	base := gm(core.KindDARP, "")
	loose := gm(core.KindDARP, "flex16")
	out.Rows = append(out.Rows, row("D1 credit-bounds",
		"DARP postpone bound 8 (erratum) vs 16 (pre-erratum)", base, loose))

	// D2 — writeback-mode bank pick: min-pending vs random.
	randPick := gm(core.KindDARP, "randpick")
	out.Rows = append(out.Rows, row("D2 write-pick",
		"write-refresh picks min-pending bank vs random bank", base, randPick))

	// D3 — SARP power throttle: Eq. 1-3 inflation vs none (upper bound).
	baseDS := gm(core.KindDSARP, "")
	noThrottle := gm(core.KindDSARP, "nothrottle")
	out.Rows = append(out.Rows, row("D3 sarp-throttle",
		"DSARP with tFAW/tRRD inflation (paper) vs no inflation", baseDS, noThrottle))

	// D4 — page policy: closed-row (paper) vs open-row.
	openRow := gm(core.KindDSARP, "openrow")
	out.Rows = append(out.Rows, row("D4 page-policy",
		"DSARP with closed-row (paper) vs open-row", baseDS, openRow))

	// D5 — idle-bank choice: random (Fig. 8) vs greedy largest-debt.
	greedy := gm(core.KindDARP, "greedy")
	out.Rows = append(out.Rows, row("D5 idle-pick",
		"out-of-order refresh picks random idle bank vs largest-debt", base, greedy))

	return out
}

func row(name, desc string, base, variant float64) AblationRow {
	return AblationRow{
		Name:        name,
		Description: desc,
		BaseWS:      base,
		VariantWS:   variant,
		DeltaPct:    stats.PctImprovement(variant / base),
	}
}

func (a AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations (32Gb, intensive workloads):\n%-18s %9s %10s %8s  %s\n",
		"ablation", "base WS", "variant WS", "delta%", "description")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-18s %9.3f %10.3f %8.2f  %s\n",
			r.Name, r.BaseWS, r.VariantWS, r.DeltaPct, r.Description)
	}
	return b.String()
}
