package exp

import "dsarp/internal/core"

// PausingResult compares refresh pausing (Nair et al., HPCA 2013 — the §7
// related mechanism, implemented as an extension) with the paper's
// mechanisms, normalized to REFab over PausingMechanisms. Expected shape:
// pausing beats REFab (it yields to demand at row-granular pausing points)
// but falls short of DSARP, which overlaps rather than merely reorders
// refresh work.
type PausingResult = NormWSResult

// pausingHeading is the first line of the pausing comparison's render.
const pausingHeading = "Extension — refresh pausing vs the paper's mechanisms (WS / REFab):"

// PausingMechanisms are the columns of the pausing comparison.
func PausingMechanisms() []core.Kind {
	return []core.Kind{core.KindREFab, core.KindPause, core.KindDARP,
		core.KindDSARP, core.KindNoRef}
}
