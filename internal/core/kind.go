package core

import (
	"fmt"

	"dsarp/internal/sched"
	"dsarp/internal/timing"
)

// Kind names a complete refresh mechanism: a scheduling policy plus whether
// the DRAM device runs with the SARP modification and which timing mode it
// needs. These are the seven mechanisms of the paper's evaluation (§6) plus
// the FGR/AR baselines of Fig. 16 and the DARP breakdown of §6.1.2.
type Kind int

const (
	// KindNoRef is the ideal refresh-free baseline.
	KindNoRef Kind = iota
	// KindREFab is commodity all-bank refresh.
	KindREFab
	// KindREFpb is LPDDR round-robin per-bank refresh.
	KindREFpb
	// KindElastic is elastic refresh (Stuecheli et al., MICRO 2010).
	KindElastic
	// KindDARPOoO is DARP with only its out-of-order component (§6.1.2).
	KindDARPOoO
	// KindDARP is full DARP: out-of-order + write-refresh parallelization.
	KindDARP
	// KindSARPab is all-bank refresh on a SARP-enabled device.
	KindSARPab
	// KindSARPpb is per-bank refresh on a SARP-enabled device.
	KindSARPpb
	// KindDSARP is DARP + SARPpb, the paper's combined mechanism.
	KindDSARP
	// KindFGR2x is DDR4 fine granularity refresh at 2x rate.
	KindFGR2x
	// KindFGR4x is DDR4 fine granularity refresh at 4x rate.
	KindFGR4x
	// KindAR is adaptive refresh (Mukundan et al., ISCA 2013).
	KindAR
	// KindPause is refresh pausing (Nair et al., HPCA 2013), the §7
	// related mechanism, included as an extension baseline.
	KindPause
)

var kindNames = map[Kind]string{
	KindNoRef:   "NoREF",
	KindREFab:   "REFab",
	KindREFpb:   "REFpb",
	KindElastic: "Elastic",
	KindDARPOoO: "DARP-ooo",
	KindDARP:    "DARP",
	KindSARPab:  "SARPab",
	KindSARPpb:  "SARPpb",
	KindDSARP:   "DSARP",
	KindFGR2x:   "FGR2x",
	KindFGR4x:   "FGR4x",
	KindAR:      "AR",
	KindPause:   "Pause",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a mechanism name (as printed by String) to its Kind.
func ParseKind(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown mechanism %q", name)
}

// Kinds returns all mechanisms in evaluation order.
func Kinds() []Kind {
	return []Kind{KindNoRef, KindREFab, KindREFpb, KindElastic, KindDARPOoO,
		KindDARP, KindSARPab, KindSARPpb, KindDSARP, KindFGR2x, KindFGR4x,
		KindAR, KindPause}
}

// SARP reports whether the mechanism requires the SARP DRAM modification.
func (k Kind) SARP() bool {
	return k == KindSARPab || k == KindSARPpb || k == KindDSARP
}

// RefMode returns the timing mode the mechanism's parameter set needs.
func (k Kind) RefMode() timing.RefMode {
	switch k {
	case KindNoRef:
		return timing.RefNone
	case KindFGR2x:
		return timing.RefFGR2x
	case KindFGR4x:
		return timing.RefFGR4x
	case KindREFpb, KindSARPpb, KindDARP, KindDARPOoO, KindDSARP:
		return timing.RefPB
	default:
		return timing.RefAB
	}
}

// New constructs the mechanism's scheduling policy over a controller. seed
// feeds DARP's randomized idle-bank selection.
func New(k Kind, ctl *sched.Controller, seed int64) sched.RefreshPolicy {
	switch k {
	case KindNoRef:
		return sched.NoRefresh{}
	case KindREFab, KindSARPab, KindFGR2x, KindFGR4x:
		return NewAllBank(ctl, seed)
	case KindREFpb, KindSARPpb:
		return NewPerBank(ctl, seed)
	case KindElastic:
		return NewElastic(ctl, seed)
	case KindDARPOoO:
		return NewDARP(ctl, DARPOptions{WriteRefresh: false}, seed)
	case KindDARP, KindDSARP:
		return NewDARP(ctl, DARPOptions{WriteRefresh: true}, seed)
	case KindAR:
		return NewAdaptive(ctl, seed)
	case KindPause:
		return NewPausing(ctl, seed)
	default:
		panic(fmt.Sprintf("core: unknown kind %d", int(k)))
	}
}
