package core

import (
	"math"

	"dsarp/internal/dram"
	"dsarp/internal/sched"
	"dsarp/internal/timing"
)

// AllBank is the commodity DDR baseline: one REFab per rank every tREFIab
// (paper §2.2.1). When a refresh comes due the policy blocks demand to the
// rank, drains open banks with precharges, and issues the REFab as soon as
// the device accepts it. Rank phases are staggered so the two ranks of a
// channel do not refresh simultaneously.
//
// Paired with a SARP-enabled device this policy is the paper's SARPab
// configuration: the rank keeps serving accesses to non-refreshing
// subarrays during tRFCab.
//
// Every due refresh is forced: the rank timers' forced flag is the due
// flag, and the owed count stays unused.
type AllBank struct {
	rankTimers
	refRows int // rows per refresh op (scaled down under FGR)
}

// NewAllBank builds the REFab policy over a controller. seed offsets
// the refresh timer phase so independent channels decorrelate. Under an FGR
// timing mode (Fig. 16) the same scheduler runs at the scaled 2x/4x rate
// with proportionally fewer rows restored per command.
func NewAllBank(ctl *sched.Controller, seed int64) *AllBank {
	g := ctl.Dev().Geometry()
	p := &AllBank{rankTimers: newRankTimers(ctl, seed)}
	switch ctl.Timing().Mode {
	case timing.RefFGR2x:
		p.refRows = max(1, g.RowsPerRef/2)
	case timing.RefFGR4x:
		p.refRows = max(1, g.RowsPerRef/4)
	}
	return p
}

// Name implements sched.RefreshPolicy.
func (p *AllBank) Name() string {
	switch {
	case p.ctl.Dev().SARP():
		return "SARPab"
	case p.ctl.Timing().Mode == timing.RefFGR2x:
		return "FGR2x"
	case p.ctl.Timing().Mode == timing.RefFGR4x:
		return "FGR4x"
	default:
		return "REFab"
	}
}

// Blocked implements sched.RefreshPolicy: demand to the whole rank is held
// while it drains for a due refresh. With SARP there is no need to drain —
// the rank stays accessible during refresh — so nothing is blocked.
func (p *AllBank) Blocked(rank, _ int) bool { return !p.ctl.Dev().SARP() && p.forced[rank] }

// NextDeadline implements sched.RefreshPolicy. A rank with a due refresh is
// active only while it drains open banks or could actually issue; once the
// rank is fully precharged the exact earliest-REFab bound names the cycle
// the wait ends (post-drain tRP, a still-running refresh when the schedule
// has fallen behind). SARP devices keep the conservative per-cycle answer —
// their refresh legality depends on subarray state.
func (p *AllBank) NextDeadline(now int64) int64 {
	ev := int64(math.MaxInt64)
	dev := p.ctl.Dev()
	for r := 0; r < p.ranks; r++ {
		if now >= p.next[r] && !p.forced[r] {
			return now // due flag flips this cycle
		}
		if !p.forced[r] {
			if p.next[r] < ev {
				ev = p.next[r]
			}
			continue
		}
		if dev.SARP() {
			// While a refresh occupies the rank every REFab is rejected,
			// and only a subarray-conflicting open row gets drained.
			busy := dev.RefreshBusyUntil(r)
			if now >= busy || sarpConflictOpen(dev, r, -1) {
				return now
			}
			if busy < ev {
				ev = busy
			}
			continue
		}
		open := false
		for b := 0; b < p.banks; b++ {
			if dev.OpenRow(r, b) != dram.NoRow {
				open = true
				break
			}
		}
		if open {
			return now // draining
		}
		e := dev.EarliestREFab(r)
		if e <= now {
			return now
		}
		if e < ev {
			ev = e
		}
	}
	return ev
}

// Tick implements sched.RefreshPolicy.
func (p *AllBank) Tick(now int64, _ bool) bool {
	dev := p.ctl.Dev()
	for r := 0; r < p.ranks; r++ {
		if now >= p.next[r] {
			p.setForced(r, true)
		}
		if !p.forced[r] {
			continue
		}
		cmd := dram.Cmd{Kind: dram.CmdREFab, Rank: r, RefRows: p.refRows}
		if dev.CanIssue(cmd, now) {
			p.ctl.IssueCmd(cmd, now)
			p.next[r] += p.tREFI
			p.setForced(r, now >= p.next[r]) // back-to-back if we fell behind
			return true
		}
		if p.drainRank(r, now) {
			return true
		}
	}
	return false
}
