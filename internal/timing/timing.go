// Package timing defines DRAM timing parameter sets for the simulator.
//
// All parameters are expressed in DRAM bus-clock cycles (tCK). The default
// device is DDR3-1333 (tCK = 1.5 ns), matching the evaluated configuration
// of Chang et al., HPCA 2014 (Table 1). Refresh parameters scale with chip
// density per the paper's §3.1 methodology: tRFCab comes from datasheet
// values and linear extrapolation, tRFCpb = tRFCab / 2.3 (the LPDDR2 ratio),
// and tREFIpb = tREFIab / 8.
package timing

import "fmt"

// Density is a DRAM chip density in gigabits.
type Density int

// Chip densities used throughout the paper's evaluation. Gb1..Gb4 exist for
// the tRFCab trend projection (Fig. 5); the evaluation uses Gb8..Gb32.
const (
	Gb1  Density = 1
	Gb2  Density = 2
	Gb4  Density = 4
	Gb8  Density = 8
	Gb16 Density = 16
	Gb32 Density = 32
	Gb64 Density = 64
)

func (d Density) String() string { return fmt.Sprintf("%dGb", int(d)) }

// Retention is the DRAM cell retention time assumed for refresh scheduling.
type Retention int

const (
	// Retention32ms is the paper's default (server environment / LPDDR):
	// tREFIab = 3.9 us.
	Retention32ms Retention = 32
	// Retention64ms is the DDR3 normal-temperature default: tREFIab = 7.8 us.
	Retention64ms Retention = 64
)

func (r Retention) String() string { return fmt.Sprintf("%dms", int(r)) }

// tCKps is the DDR3-1333 bus clock period in picoseconds (1.5 ns).
const tCKps = 1500

// NsToCycles converts nanoseconds to DRAM cycles, rounding up (a timing
// constraint must never be shortened by rounding).
func NsToCycles(ns float64) int {
	ps := ns * 1000
	c := int(ps) / tCKps
	if int(ps)%tCKps != 0 {
		c++
	}
	return c
}

// CyclesToNs converts DRAM cycles to nanoseconds.
func CyclesToNs(c int) float64 { return float64(c) * tCKps / 1000 }

// TRFCabNs returns the all-bank refresh latency in nanoseconds for a chip
// density. 1-8 Gb values are DDR3 datasheet values [11, 29]; 16 Gb and
// beyond use the paper's "Projection 2" linear extrapolation anchored on the
// 4 Gb and 8 Gb points (§3.1, Fig. 5), which yields the paper's evaluated
// 530 ns (16 Gb) and 890 ns (32 Gb).
func TRFCabNs(d Density) float64 {
	switch d {
	case Gb1:
		return 110
	case Gb2:
		return 160
	case Gb4:
		return 260
	case Gb8:
		return 350
	case Gb16:
		return 530
	case Gb32:
		return 890
	default:
		return Projection2(float64(d))
	}
}

// Projection1 is the Fig. 5 extrapolation of tRFCab (ns) fit through the
// 1, 2 and 4 Gb datasheet points (least-squares line).
func Projection1(densityGb float64) float64 {
	// Points (1,110), (2,160), (4,260): exact line 50*d + 60 ns.
	return 50*densityGb + 60
}

// Projection2 is the Fig. 5 extrapolation of tRFCab (ns) fit through the
// 4 and 8 Gb points — the more optimistic projection the paper evaluates.
func Projection2(densityGb float64) float64 {
	// Points (4,260), (8,350): slope 22.5 ns/Gb, intercept 170 ns.
	return 22.5*densityGb + 170
}

// TrendPoint is one row of the Fig. 5 refresh-latency trend.
type TrendPoint struct {
	DensityGb   float64
	Projection1 float64 // ns
	Projection2 float64 // ns
}

// TRFCTrend regenerates the Fig. 5 series for densities 1..64 Gb.
func TRFCTrend() []TrendPoint {
	densities := []float64{1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 64}
	pts := make([]TrendPoint, 0, len(densities))
	for _, d := range densities {
		pts = append(pts, TrendPoint{
			DensityGb:   d,
			Projection1: Projection1(d),
			Projection2: Projection2(d),
		})
	}
	return pts
}

// RefMode selects the refresh command granularity and rate.
type RefMode int

const (
	// RefAB is all-bank (rank-level) refresh, the commodity DDR default.
	RefAB RefMode = iota
	// RefPB is per-bank refresh (LPDDR): tREFIpb = tREFIab/8, one bank per op.
	RefPB
	// RefFGR2x is DDR4 fine granularity refresh at 2x rate (Fig. 16).
	RefFGR2x
	// RefFGR4x is DDR4 fine granularity refresh at 4x rate (Fig. 16).
	RefFGR4x
	// RefNone disables refresh entirely (the ideal "No REF" baseline).
	RefNone
)

func (m RefMode) String() string {
	switch m {
	case RefAB:
		return "REFab"
	case RefPB:
		return "REFpb"
	case RefFGR2x:
		return "FGR2x"
	case RefFGR4x:
		return "FGR4x"
	case RefNone:
		return "NoREF"
	default:
		return fmt.Sprintf("RefMode(%d)", int(m))
	}
}

// Params is a complete DRAM timing parameter set in DRAM cycles.
type Params struct {
	// Core DDR3-1333 (9-9-9) access timings.
	CL   int // CAS (read) latency
	CWL  int // CAS write latency
	BL   int // burst length on the bus (BL8 => 4 cycles at DDR)
	TRCD int // ACT -> column command, same bank
	TRP  int // PRE -> ACT, same bank
	TRAS int // ACT -> PRE, same bank
	TRC  int // ACT -> ACT, same bank
	TRRD int // ACT -> ACT, same rank, different banks
	TFAW int // rolling window allowing at most 4 ACTs per rank
	TCCD int // column command -> column command, same rank
	TWTR int // end of write data -> read command (bus turnaround)
	TRTW int // read command -> write command spacing
	TRTP int // read -> PRE, same bank
	TWR  int // end of write data -> PRE, same bank

	// Refresh timings.
	TREFIab int // all-bank refresh command interval
	TREFIpb int // per-bank refresh command interval (tREFIab / 8)
	TRFCab  int // all-bank refresh latency
	TRFCpb  int // per-bank refresh latency (tRFCab / 2.3)

	// SARP power-integrity throttle (paper Eq. 1-3): multipliers applied to
	// tFAW and tRRD while a refresh is in progress, scaled by 1000
	// (1138 = x1.138). Derived from Micron 8Gb IDD values.
	SARPThrottleABx1000 int
	SARPThrottlePBx1000 int

	Density   Density
	Retention Retention
	Mode      RefMode
}

// Config selects a timing parameter set.
type Config struct {
	Density   Density
	Retention Retention
	Mode      RefMode
}

// DDR3 returns the DDR3-1333 parameter set for a density/retention/mode,
// mirroring Table 1 of the paper.
func DDR3(cfg Config) Params {
	if cfg.Density == 0 {
		cfg.Density = Gb8
	}
	if cfg.Retention == 0 {
		cfg.Retention = Retention32ms
	}
	p := Params{
		CL: 9, CWL: 7, BL: 4,
		TRCD: 9, TRP: 9, TRAS: 24, TRC: 33,
		TRRD: 4, TFAW: 20, TCCD: 4,
		TWTR: 5, TRTW: 7, TRTP: 5, TWR: 10,
		Density:   cfg.Density,
		Retention: cfg.Retention,
		Mode:      cfg.Mode,
		// Paper §4.3.3: SARP increases tFAW/tRRD by 2.1x during all-bank
		// refresh and 13.8% during per-bank refresh.
		SARPThrottleABx1000: 2100,
		SARPThrottlePBx1000: 1138,
	}

	// tREFIab: the retention window divided by the 8192 refresh commands
	// a rank receives per window (64 ms -> 7.8 us, 32 ms -> 3.9 us).
	switch cfg.Retention {
	case Retention64ms:
		p.TREFIab = NsToCycles(7800)
	default:
		p.TREFIab = NsToCycles(3900)
	}

	trfcab := TRFCabNs(cfg.Density)
	p.TRFCab = NsToCycles(trfcab)
	p.TRFCpb = NsToCycles(trfcab / 2.3)

	// DDR4 FGR (Fig. 16): 2x/4x refresh rate; tRFCab shrinks by only
	// 1.35x/1.63x [13], so the aggregate refresh penalty grows.
	switch cfg.Mode {
	case RefFGR2x:
		p.TREFIab /= 2
		p.TRFCab = NsToCycles(trfcab / 1.35)
	case RefFGR4x:
		p.TREFIab /= 4
		p.TRFCab = NsToCycles(trfcab / 1.63)
	}
	// Derived after any rate scaling so 8*tREFIpb always fits in tREFIab.
	p.TREFIpb = p.TREFIab / 8
	return p
}

// SARPThrottledAB returns tFAW and tRRD inflated for all-bank SARP refresh.
func (p Params) SARPThrottledAB() (tfaw, trrd int) {
	return scaleUp(p.TFAW, p.SARPThrottleABx1000), scaleUp(p.TRRD, p.SARPThrottleABx1000)
}

// SARPThrottledPB returns tFAW and tRRD inflated for per-bank SARP refresh.
func (p Params) SARPThrottledPB() (tfaw, trrd int) {
	return scaleUp(p.TFAW, p.SARPThrottlePBx1000), scaleUp(p.TRRD, p.SARPThrottlePBx1000)
}

func scaleUp(v, mulX1000 int) int {
	n := v * mulX1000
	c := n / 1000
	if n%1000 != 0 {
		c++
	}
	return c
}

// Validate reports an error if the parameter set is internally inconsistent.
func (p Params) Validate() error {
	switch {
	case p.TRC < p.TRAS+p.TRP:
		return fmt.Errorf("timing: tRC (%d) < tRAS+tRP (%d)", p.TRC, p.TRAS+p.TRP)
	case p.Mode != RefNone && p.TRFCpb > p.TRFCab:
		return fmt.Errorf("timing: tRFCpb (%d) > tRFCab (%d)", p.TRFCpb, p.TRFCab)
	case p.Mode != RefNone && p.TREFIpb*8 > p.TREFIab:
		return fmt.Errorf("timing: 8*tREFIpb (%d) > tREFIab (%d)", p.TREFIpb*8, p.TREFIab)
	case p.TRFCab >= p.TREFIab && p.Mode != RefNone:
		return fmt.Errorf("timing: tRFCab (%d) >= tREFIab (%d): refresh starves the device", p.TRFCab, p.TREFIab)
	case p.TFAW < p.TRRD:
		return fmt.Errorf("timing: tFAW (%d) < tRRD (%d)", p.TFAW, p.TRRD)
	}
	return nil
}
