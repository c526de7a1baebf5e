package core

import (
	"math"

	"dsarp/internal/dram"
	"dsarp/internal/sched"
)

// Pausing implements refresh pausing (Nair et al., HPCA 2013), the related
// mechanism the paper discusses in §7: an all-bank refresh is broken into
// per-row segments with a "refresh pausing point" after each, so the
// controller can interrupt a refresh to serve pending demand and resume it
// afterwards.
//
// The paper argues pausing is hard to realize because real devices refresh
// multiple rows in parallel; it is included here as an additional
// comparison point (the exp "pausing" experiment), not as part of the
// paper's own figures. Each nominal REFab becomes Segments sub-commands
// of tRFCab/Segments cycles; between segments demand flows freely, and a
// segment is issued only when its rank has no pending demand — unless the
// whole refresh is overdue (the postponement budget is spent), in which
// case segments are forced back to back.
type Pausing struct {
	rankTimers       // owed counts are in whole-REFab units
	segs       []int // per-rank remaining segments of the in-progress refresh

	segments int
	segDur   int
	segRows  int
}

// PauseSegments is the number of pausing points per refresh: one per row
// of the standard 8-row refresh op.
const PauseSegments = 8

// NewPausing builds the refresh pausing policy over a controller.
func NewPausing(ctl *sched.Controller, seed int64) *Pausing {
	g := ctl.Dev().Geometry()
	tp := ctl.Timing()
	segs := PauseSegments
	if g.RowsPerRef < segs {
		segs = g.RowsPerRef
	}
	return &Pausing{
		rankTimers: newRankTimers(ctl, seed),
		segs:       make([]int, g.Ranks),
		segments:   segs,
		segDur:     max(1, tp.TRFCab/segs),
		segRows:    max(1, g.RowsPerRef/segs),
	}
}

// Name implements sched.RefreshPolicy.
func (p *Pausing) Name() string { return "Pause" }

// NextDeadline implements sched.RefreshPolicy. The one quiescent state with
// refresh work outstanding is the pausing point itself: segments remain,
// demand is pending, and the refresh is not forced — which holds until the
// rank's timer fires (accruing debt and possibly forcing). Everything else
// (starting a refresh, issuing a segment to an idle rank, draining when
// forced) probes the device every cycle.
func (p *Pausing) NextDeadline(now int64) int64 {
	ev := int64(math.MaxInt64)
	for r := 0; r < p.ranks; r++ {
		if p.owedN[r] < maxFlex && now >= p.next[r] {
			return now // owed count accrues this cycle
		}
		if p.owedN[r] == 0 && p.segs[r] == 0 {
			if p.forced[r] {
				return now // Tick clears the stale forced flag (epoch bump)
			}
			if p.next[r] < ev {
				ev = p.next[r]
			}
			continue
		}
		if p.segs[r] == 0 {
			return now // a new refresh starts (owed consumed, segments armed)
		}
		if p.overdue(r, now) || p.forced[r] || p.rankIdle(r) {
			return now
		}
		if p.next[r] < ev {
			ev = p.next[r] // paused: resumes when idle or forced at the timer
		}
	}
	return ev
}

// Tick implements sched.RefreshPolicy.
func (p *Pausing) Tick(now int64, _ bool) bool {
	dev := p.ctl.Dev()
	for r := 0; r < p.ranks; r++ {
		p.accrue(r, now)
		if p.owedN[r] == 0 && p.segs[r] == 0 {
			p.setForced(r, false)
			continue
		}
		// Forced when the budget is exhausted: finish segments back to back.
		p.setForced(r, p.overdue(r, now))
		if p.segs[r] == 0 {
			// Start a new refresh (consume one owed REFab).
			p.owedN[r]--
			p.segs[r] = p.segments
		}
		// Pause: while demand is pending and we are not forced, yield the
		// slot — this is the refresh pausing point.
		if !p.forced[r] && !p.rankIdle(r) {
			continue
		}
		cmd := dram.Cmd{Kind: dram.CmdREFab, Rank: r, RefDur: p.segDur, RefRows: p.segRows}
		if dev.CanIssue(cmd, now) {
			p.ctl.IssueCmd(cmd, now)
			p.segs[r]--
			return true
		}
		if p.forced[r] && p.drainRank(r, now) {
			return true
		}
	}
	return false
}
