package core

import (
	"math"

	"dsarp/internal/dram"
	"dsarp/internal/sched"
)

// PerBank is the LPDDR per-bank refresh baseline (paper §2.2.2): one REFpb
// every tREFIpb = tREFIab/8, delivered to banks in a strict sequential
// round-robin order dictated by the DRAM-internal refresh unit. The
// controller has no say in bank selection: when a refresh comes due, the
// round-robin bank is drained and refreshed even if it has pending demand —
// exactly the inflexibility DARP removes.
//
// Paired with a SARP-enabled device this is the paper's SARPpb
// configuration.
type PerBank struct {
	ctl   *sched.Controller
	ranks int
	next  []int64 // per-rank next nominal refresh time
	owedN []int64 // per-rank refreshes due but not yet issued
}

// NewPerBank builds the round-robin REFpb policy over a controller. seed
// offsets the refresh timer phase so independent channels decorrelate.
func NewPerBank(ctl *sched.Controller, seed int64) *PerBank {
	g := ctl.Dev().Geometry()
	// Rank schedules are staggered half a tREFIpb apart so the two ranks'
	// refresh pulses interleave, as independent per-rank refresh timers
	// would.
	return &PerBank{
		ctl:   ctl,
		ranks: g.Ranks,
		next:  staggeredTimers(seed, int64(ctl.Timing().TREFIpb), g.Ranks),
		owedN: make([]int64, g.Ranks),
	}
}

// Name implements sched.RefreshPolicy.
func (p *PerBank) Name() string {
	if p.ctl.Dev().SARP() {
		return "SARPpb"
	}
	return "REFpb"
}

// Blocked implements sched.RefreshPolicy: the round-robin target bank is
// held while its refresh is pending (no SARP: the whole bank is tied up, so
// queued demand would only delay the mandatory refresh).
func (p *PerBank) Blocked(rank, bank int) bool {
	dev := p.ctl.Dev()
	return !dev.SARP() && p.owedN[rank] > 0 && dev.RefreshUnit(rank).PeekBank() == bank
}

// NextDeadline implements sched.RefreshPolicy. A rank with owed refreshes
// is only genuinely active when its round-robin bank needs draining or the
// refresh could actually issue; while an earlier refresh still occupies the
// rank (or the bank's own timing holds the REFpb off) every attempt is
// provably rejected and the whole wait is skippable.
func (p *PerBank) NextDeadline(now int64) int64 {
	ev := int64(math.MaxInt64)
	dev := p.ctl.Dev()
	for r := 0; r < p.ranks; r++ {
		if now >= p.next[r] {
			return now // owed count accrues this cycle
		}
		if p.next[r] < ev {
			ev = p.next[r]
		}
		if p.owedN[r] == 0 {
			continue
		}
		bank := dev.RefreshUnit(r).PeekBank()
		if dev.SARP() {
			// All REFpb to the rank fail while any refresh is in progress;
			// the drain only applies to a subarray-conflicting open row.
			busy := dev.RefreshBusyUntil(r)
			if now >= busy || sarpConflictOpen(dev, r, bank) {
				return now
			}
			if busy < ev {
				ev = busy
			}
			continue
		}
		if open := dev.OpenRow(r, bank); open != dram.NoRow {
			return now // draining the round-robin bank
		}
		e := dev.EarliestREFpb(r, bank)
		if e <= now {
			return now
		}
		if e < ev {
			ev = e
		}
	}
	return ev
}

// Skip implements sched.RefreshPolicy: no per-cycle accounting.
func (p *PerBank) Skip(int64, int64) {}

// Tick implements sched.RefreshPolicy.
func (p *PerBank) Tick(now int64, _ bool) bool {
	tREFIpb := int64(p.ctl.Timing().TREFIpb)
	dev := p.ctl.Dev()
	for r := 0; r < p.ranks; r++ {
		for now >= p.next[r] {
			if p.owedN[r] == 0 {
				p.ctl.NoteBlockedChanged() // bank block engages
			}
			p.owedN[r]++
			p.next[r] += tREFIpb
		}
		if p.owedN[r] == 0 {
			continue
		}
		bank := dev.RefreshUnit(r).PeekBank()
		cmd := dram.Cmd{Kind: dram.CmdREFpb, Rank: r, Bank: bank}
		if dev.CanIssue(cmd, now) {
			p.ctl.IssueCmd(cmd, now)
			p.owedN[r]--
			p.ctl.NoteBlockedChanged() // owed count or round-robin bank changed
			return true
		}
		if drainBank(p.ctl, r, bank, now) {
			return true
		}
	}
	return false
}
