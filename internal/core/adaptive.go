package core

import (
	"math"

	"dsarp/internal/dram"
	"dsarp/internal/sched"
	"dsarp/internal/timing"
)

// Adaptive implements adaptive refresh (AR) from Mukundan et al., ISCA 2013,
// the DDR4 baseline of the paper's Fig. 16. AR dynamically switches between
// the 1x (standard REFab) and 4x fine-granularity refresh modes: a due
// refresh is postponed while the rank is busy; when the rank is idle a full
// 1x refresh is issued, and when the postponement budget runs out while the
// rank is still busy the backlog is paid down with short 4x-granularity
// commands so each individual lockout is smaller.
//
// Since 4x commands carry a worse latency-per-row ratio (tRFCab shrinks by
// only 1.63x at 4x rate [13]), AR lands slightly below REFab overall —
// matching the paper's observation that AR "performs slightly worse than
// REFab (within 1%)".
type Adaptive struct {
	rankTimers // owed counts are in 1x refreshes
	// quarters is the per-rank count of outstanding 4x sub-commands for a 1x
	// refresh being paid down at 4x granularity.
	quarters []int

	dur4x  int // 4x command latency: tRFCab / 1.63
	rows4x int
}

// NewAdaptive builds the AR policy over a controller; seed offsets the
// refresh timer phase so independent channels decorrelate. The
// controller's timing parameters must be the standard (1x) set.
func NewAdaptive(ctl *sched.Controller, seed int64) *Adaptive {
	g := ctl.Dev().Geometry()
	return &Adaptive{
		rankTimers: newRankTimers(ctl, seed),
		quarters:   make([]int, g.Ranks),
		dur4x:      timing.NsToCycles(timing.CyclesToNs(ctl.Timing().TRFCab) / 1.63),
		rows4x:     max(1, g.RowsPerRef/4),
	}
}

// Name implements sched.RefreshPolicy.
func (p *Adaptive) Name() string { return "AR" }

// NextDeadline implements sched.RefreshPolicy. The policy probes the device
// every cycle while paying down a 4x backlog, while a refresh is overdue, or
// while an idle rank has owed refreshes; the only quiescent states are "no
// debt" and "busy rank with slack", both of which hold until the rank's 1x
// timer fires.
func (p *Adaptive) NextDeadline(now int64) int64 {
	ev := int64(math.MaxInt64)
	for r := 0; r < p.ranks; r++ {
		if p.quarters[r] > 0 {
			return now
		}
		if p.owedN[r] < maxFlex && now >= p.next[r] {
			return now // owed count accrues this cycle
		}
		if p.owedN[r] == 0 {
			if p.forced[r] {
				return now // Tick clears the stale forced flag (epoch bump)
			}
			if p.next[r] < ev {
				ev = p.next[r]
			}
			continue
		}
		if p.owedN[r] >= maxFlex {
			return now // overdue: draining or switching to 4x granularity
		}
		if p.rankIdle(r) {
			// An idle rank probes CanIssue(REFab) every cycle, but with the
			// refresh not overdue it never drains; refabProbeDeadline names
			// the first cycle the probe could succeed.
			e := refabProbeDeadline(p.ctl.Dev(), r, p.banks, now)
			if e <= now {
				return now
			}
			if e < ev {
				ev = e
			}
		}
		if p.next[r] < ev {
			ev = p.next[r] // overdue flips at the timer
		}
	}
	return ev
}

// Tick implements sched.RefreshPolicy.
func (p *Adaptive) Tick(now int64, _ bool) bool {
	dev := p.ctl.Dev()
	for r := 0; r < p.ranks; r++ {
		p.accrue(r, now)
		if p.owedN[r] == 0 && p.quarters[r] == 0 {
			p.setForced(r, false)
			continue
		}

		// Paying down a forced refresh at 4x granularity.
		if p.quarters[r] > 0 {
			cmd := dram.Cmd{Kind: dram.CmdREFab, Rank: r, RefDur: p.dur4x, RefRows: p.rows4x}
			if dev.CanIssue(cmd, now) {
				p.ctl.IssueCmd(cmd, now)
				p.quarters[r]--
				if p.quarters[r] == 0 {
					p.setForced(r, p.owedN[r] >= maxFlex)
				}
				return true
			}
			if p.drainRank(r, now) {
				return true
			}
			continue
		}

		overdue := p.overdue(r, now)
		if p.rankIdle(r) {
			// Idle rank: standard 1x refresh.
			cmd := dram.Cmd{Kind: dram.CmdREFab, Rank: r}
			if dev.CanIssue(cmd, now) {
				p.ctl.IssueCmd(cmd, now)
				p.owedN[r]--
				return true
			}
			if overdue && p.drainRank(r, now) {
				return true
			}
			continue
		}
		if overdue {
			// Busy rank out of slack: switch to 4x mode for this refresh so
			// each lockout is shorter.
			p.setForced(r, true)
			p.owedN[r]--
			p.quarters[r] = 4
			if p.drainRank(r, now) {
				return true
			}
		}
	}
	return false
}
