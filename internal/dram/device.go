package dram

import (
	"fmt"

	"dsarp/internal/refresh"
	"dsarp/internal/timing"
)

// Options configure optional device behaviors.
type Options struct {
	// SARP enables Subarray Access Refresh Parallelization: a refresh
	// occupies only one subarray, the rest of the bank stays accessible,
	// and tFAW/tRRD inflate while any refresh is in progress (paper §4.3).
	SARP bool
	// Check attaches the invariant checker (tests / verification runs).
	Check bool
}

// Device models one DRAM channel's worth of ranks and banks plus the shared
// command/data bus timing. It is deliberately single-threaded: one Device
// belongs to one channel controller.
//
// All timing state lives in structure-of-arrays slabs indexed by the flat
// bank id rank*Banks+bank (per-bank slices) or by rank (per-rank slices),
// rather than in per-rank/per-bank structs: the controller's demand scan
// probes several banks' legality bounds every stepped cycle, and a slab read
// is one bounds-checked load where the struct layout was a pointer chase
// through rank and bank objects. All times are absolute DRAM cycles; a
// command is legal at cycle t if t >= the relevant slab entry.
type Device struct {
	geom  Geometry
	tp    timing.Params
	opts  Options
	units []*refresh.Unit

	nbanks int // banks per rank (flat index stride)

	// Per-bank slabs, indexed rank*nbanks+bank.
	openRow     []int   // open row, NoRow when precharged
	actTime     []int64 // cycle of the most recent ACT (tRAS accounting)
	bankNextAct []int64 // earliest ACT (tRC, tRP after PRE, refresh lockout)
	nextReadAt  []int64 // earliest RD/RDA (tRCD after ACT)
	nextWriteAt []int64 // earliest WR/WRA (tRCD after ACT)
	nextPreAt   []int64 // earliest PRE (tRAS after ACT, tRTP after RD, tWR after WR)
	refUntil    []int64 // > t: a refresh is restoring rows in refSubarray
	refSubarray []int   // subarray being refreshed (NoSubarray otherwise)

	// Per-rank slabs.
	rankNextAct  []int64 // earliest ACT in any bank of the rank (tRRD)
	rankRefUntil []int64 // all-bank refresh occupancy
	pbRefUntil   []int64 // REFpb serialization: next REFpb may not start before
	actCount     []int   // total ACTs issued per rank (ring occupancy)
	actRing      []int64 // ranks*4 fixed ring: issue times of the last four ACTs (tFAW)

	busFreeAt int64 // next cycle the data bus is free
	nextRead  int64 // earliest read column command (tCCD, tWTR turnaround)
	nextWrite int64 // earliest write column command (tCCD, tRTW turnaround)

	checker *Checker
	stats   Stats
}

// New builds a Device. Geometry and timing must be valid.
func New(geom Geometry, tp timing.Params, opts Options) (*Device, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if err := tp.Validate(); err != nil {
		return nil, err
	}
	nb := geom.Ranks * geom.Banks
	d := &Device{
		geom:   geom,
		tp:     tp,
		opts:   opts,
		units:  make([]*refresh.Unit, geom.Ranks),
		nbanks: geom.Banks,

		openRow:     make([]int, nb),
		actTime:     make([]int64, nb),
		bankNextAct: make([]int64, nb),
		nextReadAt:  make([]int64, nb),
		nextWriteAt: make([]int64, nb),
		nextPreAt:   make([]int64, nb),
		refUntil:    make([]int64, nb),
		refSubarray: make([]int, nb),

		rankNextAct:  make([]int64, geom.Ranks),
		rankRefUntil: make([]int64, geom.Ranks),
		pbRefUntil:   make([]int64, geom.Ranks),
		actCount:     make([]int, geom.Ranks),
		actRing:      make([]int64, geom.Ranks*4),
	}
	for i := 0; i < nb; i++ {
		d.openRow[i] = NoRow
		d.refSubarray[i] = NoSubarray
	}
	for i := range d.units {
		d.units[i] = refresh.NewUnit(geom.Banks, geom.RowsPerBank, geom.SubarraysPerBank, geom.RowsPerRef)
	}
	if opts.Check {
		d.checker = NewChecker(geom, tp, opts.SARP)
	}
	return d, nil
}

// MustNew is New that panics on error; for tests.
func MustNew(geom Geometry, tp timing.Params, opts Options) *Device {
	d, err := New(geom, tp, opts)
	if err != nil {
		panic(err)
	}
	return d
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// Timing returns the timing parameter set.
func (d *Device) Timing() timing.Params { return d.tp }

// SARP reports whether subarray access-refresh parallelization is enabled.
func (d *Device) SARP() bool { return d.opts.SARP }

// Stats returns accumulated command statistics.
func (d *Device) Stats() Stats { return d.stats }

// Checker returns the attached invariant checker, or nil.
func (d *Device) Checker() *Checker { return d.checker }

// RefreshUnit exposes a rank's refresh unit (policies peek at its counters;
// the memory controller keeps shadow copies of these per paper §4.3.2).
func (d *Device) RefreshUnit(rankID int) *refresh.Unit { return d.units[rankID] }

// bankRefreshing reports whether a per-bank refresh occupies flat bank bi at t.
func (d *Device) bankRefreshing(bi int, t int64) bool { return t < d.refUntil[bi] }

// rankRefreshing reports whether an all-bank refresh is in progress at t.
func (d *Device) rankRefreshing(rankID int, t int64) bool { return t < d.rankRefUntil[rankID] }

// anyRefreshInProgress reports whether any refresh (all-bank or per-bank) is
// restoring rows anywhere in the rank at t. The SARP power throttle on
// tFAW/tRRD applies exactly while this holds (paper §4.3.3).
func (d *Device) anyRefreshInProgress(rankID int, t int64) bool {
	return t < d.rankRefUntil[rankID] || t < d.pbRefUntil[rankID]
}

// fawReady reports whether a new ACT at t would keep at most four ACTs
// inside the rolling tFAW window.
func (d *Device) fawReady(rankID int, t int64, tfaw int) bool {
	if d.actCount[rankID] < 4 {
		return true
	}
	oldest := d.actRing[rankID*4+d.actCount[rankID]%4]
	return t >= oldest+int64(tfaw)
}

// recordACT registers an ACT at t for tRRD/tFAW accounting.
func (d *Device) recordACT(rankID int, t int64, trrd int) {
	d.actRing[rankID*4+d.actCount[rankID]%4] = t
	d.actCount[rankID]++
	d.rankNextAct[rankID] = max(d.rankNextAct[rankID], t+int64(trrd))
}

// allPrecharged reports whether every bank in the rank is precharged.
func (d *Device) allPrecharged(rankID int) bool {
	base := rankID * d.nbanks
	for bi := base; bi < base+d.nbanks; bi++ {
		if d.openRow[bi] != NoRow {
			return false
		}
	}
	return true
}

// actReadyAll is the earliest cycle at which every bank of the rank satisfies
// its per-bank ACT timing (used to gate REFab, which activates rows
// internally).
func (d *Device) actReadyAll(rankID int) int64 {
	var t int64
	base := rankID * d.nbanks
	for bi := base; bi < base+d.nbanks; bi++ {
		t = max(t, d.bankNextAct[bi])
	}
	return t
}

// effActTimings returns the tFAW/tRRD values in force at t for a rank:
// inflated per the SARP power throttle while a refresh is in progress.
func (d *Device) effActTimings(rankID int, t int64) (tfaw, trrd int) {
	if !d.opts.SARP || !d.anyRefreshInProgress(rankID, t) {
		return d.tp.TFAW, d.tp.TRRD
	}
	if d.rankRefreshing(rankID, t) {
		return d.tp.SARPThrottledAB()
	}
	return d.tp.SARPThrottledPB()
}

// subarrayBlocked reports whether an ACT to row in flat bank bi at t collides
// with an in-progress refresh. Without SARP any refresh blocks the whole bank
// (also enforced via bankNextAct); with SARP only the refreshing subarray is
// blocked.
func (d *Device) subarrayBlocked(rankID, bi, row int, t int64) bool {
	if !d.bankRefreshing(bi, t) && !d.rankRefreshing(rankID, t) {
		return false
	}
	if !d.opts.SARP {
		return true
	}
	return d.geom.SubarrayOf(row) == d.refSubarray[bi]
}

// CanIssue reports whether cmd is legal at cycle t under every timing and
// occupancy constraint.
func (d *Device) CanIssue(cmd Cmd, t int64) bool {
	if cmd.Rank < 0 || cmd.Rank >= d.geom.Ranks {
		return false
	}
	bi := cmd.Rank*d.nbanks + cmd.Bank
	switch cmd.Kind {
	case CmdACT:
		if d.openRow[bi] != NoRow || t < d.bankNextAct[bi] || t < d.rankNextAct[cmd.Rank] {
			return false
		}
		tfaw, _ := d.effActTimings(cmd.Rank, t)
		if !d.fawReady(cmd.Rank, t, tfaw) {
			return false
		}
		return !d.subarrayBlocked(cmd.Rank, bi, cmd.Row, t)

	case CmdRD, CmdRDA:
		return d.openRow[bi] == cmd.Row && t >= d.nextReadAt[bi] && t >= d.nextRead &&
			t+int64(d.tp.CL) >= d.busFreeAt

	case CmdWR, CmdWRA:
		return d.openRow[bi] == cmd.Row && t >= d.nextWriteAt[bi] && t >= d.nextWrite &&
			t+int64(d.tp.CWL) >= d.busFreeAt

	case CmdPRE:
		return d.openRow[bi] != NoRow && t >= d.nextPreAt[bi] &&
			!d.bankRefreshing(bi, t) && !d.rankRefreshing(cmd.Rank, t)

	case CmdREFpb:
		return d.canRefreshBank(cmd.Rank, cmd.Bank, t)

	case CmdREFab:
		return d.canRefreshRank(cmd.Rank, t)
	}
	return false
}

func (d *Device) canRefreshBank(rankID, bankID int, t int64) bool {
	bi := rankID*d.nbanks + bankID
	// REFpb ops never overlap each other or a REFab within a rank.
	if t < d.pbRefUntil[rankID] || d.rankRefreshing(rankID, t) || d.bankRefreshing(bi, t) {
		return false
	}
	if !d.opts.SARP {
		// The whole bank is tied up: it must be precharged and past tRP,
		// and the refresh activation respects the rank ACT spacing.
		return d.openRow[bi] == NoRow && t >= d.bankNextAct[bi] && t >= d.rankNextAct[rankID]
	}
	// SARP: the refresh only needs its target subarray free; an open row in
	// a different subarray may stay open (two activated subarrays, one for
	// refresh and one for access — paper §4.3.1).
	sub := d.units[rankID].PeekSubarray(bankID)
	return d.openRow[bi] == NoRow || d.geom.SubarrayOf(d.openRow[bi]) != sub
}

func (d *Device) canRefreshRank(rankID int, t int64) bool {
	if d.rankRefreshing(rankID, t) || t < d.pbRefUntil[rankID] {
		return false
	}
	if !d.opts.SARP {
		return d.allPrecharged(rankID) && t >= d.actReadyAll(rankID)
	}
	unit := d.units[rankID]
	base := rankID * d.nbanks
	for bID := 0; bID < d.nbanks; bID++ {
		bi := base + bID
		if d.bankRefreshing(bi, t) {
			return false
		}
		if d.openRow[bi] != NoRow && d.geom.SubarrayOf(d.openRow[bi]) == unit.PeekSubarray(bID) {
			return false
		}
	}
	return true
}

// Issue applies cmd at cycle t. It panics if the command is illegal — the
// controller must gate every command with CanIssue.
func (d *Device) Issue(cmd Cmd, t int64) {
	if !d.CanIssue(cmd, t) {
		panic(fmt.Sprintf("dram: illegal %v at cycle %d", cmd, t))
	}
	bi := cmd.Rank*d.nbanks + cmd.Bank
	var refOps []refresh.Op // recorded with the checker after onIssue
	var refEnd int64
	switch cmd.Kind {
	case CmdACT:
		_, trrd := d.effActTimings(cmd.Rank, t)
		d.openRow[bi] = cmd.Row
		d.actTime[bi] = t
		d.nextReadAt[bi] = t + int64(d.tp.TRCD)
		d.nextWriteAt[bi] = t + int64(d.tp.TRCD)
		d.nextPreAt[bi] = max(d.nextPreAt[bi], t+int64(d.tp.TRAS))
		d.bankNextAct[bi] = max(d.bankNextAct[bi], t+int64(d.tp.TRC))
		d.recordACT(cmd.Rank, t, trrd)
		d.stats.Acts++

	case CmdRD, CmdRDA:
		dataEnd := t + int64(d.tp.CL) + int64(d.tp.BL)
		d.busFreeAt = dataEnd
		d.nextRead = max(d.nextRead, t+int64(d.tp.TCCD))
		d.nextWrite = max(d.nextWrite, t+int64(d.tp.TRTW))
		d.nextPreAt[bi] = max(d.nextPreAt[bi], t+int64(d.tp.TRTP))
		if cmd.Kind == CmdRDA {
			preAt := max(d.actTime[bi]+int64(d.tp.TRAS), t+int64(d.tp.TRTP))
			d.openRow[bi] = NoRow
			d.bankNextAct[bi] = max(d.bankNextAct[bi], preAt+int64(d.tp.TRP))
			d.stats.Pres++
		}
		d.stats.Reads++

	case CmdWR, CmdWRA:
		dataEnd := t + int64(d.tp.CWL) + int64(d.tp.BL)
		d.busFreeAt = dataEnd
		d.nextWrite = max(d.nextWrite, t+int64(d.tp.TCCD))
		d.nextRead = max(d.nextRead, dataEnd+int64(d.tp.TWTR))
		d.nextPreAt[bi] = max(d.nextPreAt[bi], dataEnd+int64(d.tp.TWR))
		if cmd.Kind == CmdWRA {
			preAt := max(d.actTime[bi]+int64(d.tp.TRAS), dataEnd+int64(d.tp.TWR))
			d.openRow[bi] = NoRow
			d.bankNextAct[bi] = max(d.bankNextAct[bi], preAt+int64(d.tp.TRP))
			d.stats.Pres++
		}
		d.stats.Writes++

	case CmdPRE:
		d.openRow[bi] = NoRow
		d.bankNextAct[bi] = max(d.bankNextAct[bi], t+int64(d.tp.TRP))
		d.stats.Pres++

	case CmdREFpb:
		op := d.units[cmd.Rank].RefreshBankN(cmd.Bank, orDefault(cmd.RefRows, d.geom.RowsPerRef))
		end := t + int64(orDefault(cmd.RefDur, d.tp.TRFCpb))
		d.refUntil[bi] = end
		d.refSubarray[bi] = op.Subarray
		d.pbRefUntil[cmd.Rank] = end
		if !d.opts.SARP {
			d.bankNextAct[bi] = max(d.bankNextAct[bi], end)
		} else {
			// The refreshed subarray is unavailable until the refresh
			// completes; other subarrays remain accessible under the
			// throttled ACT rate (enforced via effActTimings).
			d.bankNextAct[bi] = max(d.bankNextAct[bi], t)
		}
		d.stats.RefPBs++
		refOps, refEnd = []refresh.Op{op}, end

	case CmdREFab:
		ops := d.units[cmd.Rank].RefreshAllN(orDefault(cmd.RefRows, d.geom.RowsPerRef))
		end := t + int64(orDefault(cmd.RefDur, d.tp.TRFCab))
		d.rankRefUntil[cmd.Rank] = end
		base := cmd.Rank * d.nbanks
		for i := 0; i < d.nbanks; i++ {
			d.refUntil[base+i] = end
			d.refSubarray[base+i] = ops[i].Subarray
			if !d.opts.SARP {
				d.bankNextAct[base+i] = max(d.bankNextAct[base+i], end)
			}
		}
		d.stats.RefABs++
		refOps, refEnd = ops, end
	}
	if d.checker != nil {
		d.checker.onIssue(cmd, t, d)
		if refOps != nil {
			d.checker.recordRefresh(cmd.Rank, refOps, t, refEnd)
		}
	}
	d.stats.Commands++
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// --- Queries used by the controller and refresh policies ---

// OpenRow returns the open row of a bank, or NoRow.
func (d *Device) OpenRow(rankID, bankID int) int {
	return d.openRow[rankID*d.nbanks+bankID]
}

// BankRefreshing reports whether a refresh occupies the bank at t (either a
// per-bank refresh or an all-bank refresh covering its rank).
func (d *Device) BankRefreshing(rankID, bankID int, t int64) bool {
	return t < d.refUntil[rankID*d.nbanks+bankID] || t < d.rankRefUntil[rankID]
}

// RankRefreshing reports whether an all-bank refresh is in progress at t.
func (d *Device) RankRefreshing(rankID int, t int64) bool {
	return t < d.rankRefUntil[rankID]
}

// RefreshingSubarray returns the subarray being refreshed in a bank at t,
// or NoSubarray.
func (d *Device) RefreshingSubarray(rankID, bankID int, t int64) int {
	bi := rankID*d.nbanks + bankID
	if t < d.refUntil[bi] || t < d.rankRefUntil[rankID] {
		return d.refSubarray[bi]
	}
	return NoSubarray
}

// PBRefBusyUntil returns the cycle the rank's current per-bank refresh (if
// any) completes; per-bank refreshes may not overlap within a rank.
func (d *Device) PBRefBusyUntil(rankID int) int64 { return d.pbRefUntil[rankID] }

// RefreshBusyUntil returns the cycle by which every in-progress refresh in
// the rank (all-bank or per-bank) completes. Any REFpb to the rank is
// guaranteed illegal before then — the bound clock-skipping refresh
// policies use to prove a window of refresh attempts would all be rejected.
func (d *Device) RefreshBusyUntil(rankID int) int64 {
	return max(d.pbRefUntil[rankID], d.rankRefUntil[rankID])
}

// EarliestREFab returns the first cycle an all-bank refresh to the rank
// could be legal on a non-SARP device, assuming every bank is precharged
// (an open row needs a drain first, which the caller must treat as
// activity). Exact under that assumption: CanIssue(REFab) holds at t iff
// t >= EarliestREFab.
func (d *Device) EarliestREFab(rankID int) int64 {
	return max(d.rankRefUntil[rankID], d.pbRefUntil[rankID], d.actReadyAll(rankID))
}

// EarliestREFpb returns the first cycle a per-bank refresh to the bank
// could be legal on a non-SARP device, assuming the bank is precharged.
// Exact under that assumption.
func (d *Device) EarliestREFpb(rankID, bankID int) int64 {
	bi := rankID*d.nbanks + bankID
	return max(d.pbRefUntil[rankID], d.rankRefUntil[rankID], d.refUntil[bi],
		d.bankNextAct[bi], d.rankNextAct[rankID])
}

// EarliestColumn returns the first cycle at which a read (write=false) or
// write (write=true) column command to the bank could satisfy every timing
// constraint, assuming the addressed row is open in the bank. The bound is
// exact: given the row is open, a column command is legal at t iff
// t >= EarliestColumn. Schedulers use it to defer re-evaluating a bank
// until the command could actually go out.
func (d *Device) EarliestColumn(rankID, bankID int, write bool) int64 {
	bi := rankID*d.nbanks + bankID
	if write {
		return max(d.nextWriteAt[bi], d.nextWrite, d.busFreeAt-int64(d.tp.CWL))
	}
	return max(d.nextReadAt[bi], d.nextRead, d.busFreeAt-int64(d.tp.CL))
}

// EarliestColumnSplit decomposes EarliestColumn into its device-global part
// (shared bus and turnaround bounds, identical for every bank) and the
// per-bank slab holding the bank-local part, so a scheduler scanning many
// banks can hoist the global max out of the loop and read one slab entry per
// bank. max(global, slab[flatBankID]) == EarliestColumn for every bank.
func (d *Device) EarliestColumnSplit(write bool) (global int64, perBank []int64) {
	if write {
		return max(d.nextWrite, d.busFreeAt-int64(d.tp.CWL)), d.nextWriteAt
	}
	return max(d.nextRead, d.busFreeAt-int64(d.tp.CL)), d.nextReadAt
}

// EarliestACT returns a lower bound on the first cycle an ACT to the bank
// could be legal: it covers tRC/tRP after precharge, rank tRRD, and the
// un-throttled tFAW window, but not SARP refresh collisions or the inflated
// refresh-time tFAW/tRRD — those can only delay the ACT further, so the
// bound stays conservative.
func (d *Device) EarliestACT(rankID, bankID int) int64 {
	t := max(d.bankNextAct[rankID*d.nbanks+bankID], d.rankNextAct[rankID])
	if d.actCount[rankID] >= 4 {
		t = max(t, d.actRing[rankID*4+d.actCount[rankID]%4]+int64(d.tp.TFAW))
	}
	return t
}

// EarliestACTRank is the rank-shared part of EarliestACT (tRRD spacing and
// the un-throttled tFAW window); EarliestACTBank is the slab of bank-local
// tRC/tRP bounds. max(EarliestACTRank(rank), EarliestACTBank()[flatBankID])
// == EarliestACT for every bank, letting a scheduler hoist the rank gate out
// of its bank scan.
func (d *Device) EarliestACTRank(rankID int) int64 {
	t := d.rankNextAct[rankID]
	if d.actCount[rankID] >= 4 {
		t = max(t, d.actRing[rankID*4+d.actCount[rankID]%4]+int64(d.tp.TFAW))
	}
	return t
}

// EarliestACTBank returns the per-bank slab complementing EarliestACTRank.
func (d *Device) EarliestACTBank() []int64 { return d.bankNextAct }

// EarliestPRE returns the first cycle a PRE to the bank could be legal,
// assuming the bank has an open row. The bound is exact: it covers tRAS/
// tRTP/tWR (via the bank's precharge timer) and any in-progress refresh.
func (d *Device) EarliestPRE(rankID, bankID int) int64 {
	bi := rankID*d.nbanks + bankID
	return max(d.nextPreAt[bi], d.refUntil[bi], d.rankRefUntil[rankID])
}

// ReadDataAt returns the cycle the last beat of a read issued at t arrives.
func (d *Device) ReadDataAt(t int64) int64 { return t + int64(d.tp.CL) + int64(d.tp.BL) }

// WriteDataAt returns the cycle the last beat of a write issued at t is on
// the bus.
func (d *Device) WriteDataAt(t int64) int64 { return t + int64(d.tp.CWL) + int64(d.tp.BL) }
