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
	v     sched.View
	ranks int
	banks int
	next  []int64 // per-rank next nominal refresh time
	owedN []int64 // per-rank refreshes due (in whole-REFab units)
	segs  []int   // per-rank remaining segments of the in-progress refresh
	force []bool

	segments int
	segDur   int
	segRows  int
}

// PauseSegments is the number of pausing points per refresh: one per row
// of the standard 8-row refresh op.
const PauseSegments = 8

// NewPausing builds the refresh pausing policy over a controller view.
func NewPausing(v sched.View, seed int64) *Pausing {
	g := v.Dev().Geometry()
	tp := v.Timing()
	segs := PauseSegments
	if g.RowsPerRef < segs {
		segs = g.RowsPerRef
	}
	p := &Pausing{
		v:        v,
		ranks:    g.Ranks,
		banks:    g.Banks,
		next:     make([]int64, g.Ranks),
		owedN:    make([]int64, g.Ranks),
		segs:     make([]int, g.Ranks),
		force:    make([]bool, g.Ranks),
		segments: segs,
		segDur:   max(1, tp.TRFCab/segs),
		segRows:  max(1, g.RowsPerRef/segs),
	}
	stagger := int64(tp.TREFIab) / int64(g.Ranks)
	base := phaseOffset(seed, stagger)
	for r := 0; r < g.Ranks; r++ {
		p.next[r] = base + int64(r)*stagger
	}
	return p
}

// Name implements sched.RefreshPolicy.
func (p *Pausing) Name() string { return "Pause" }

// RankBlocked implements sched.RefreshPolicy: demand is held only when the
// refresh can no longer be postponed or paused.
func (p *Pausing) RankBlocked(rank int) bool { return p.force[rank] }

// BankBlocked implements sched.RefreshPolicy.
func (p *Pausing) BankBlocked(int, int) bool { return false }

// setForce updates a rank's force flag, bumping the blocked epoch on change.
func (p *Pausing) setForce(r int, v bool) {
	if p.force[r] != v {
		p.force[r] = v
		p.v.NoteBlockedChanged()
	}
}

func (p *Pausing) rankIdle(rank int) bool { return p.v.PendingRankDemand(rank) == 0 }

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
			if p.force[r] {
				return now // Tick clears the stale force flag (epoch bump)
			}
			if p.next[r] < ev {
				ev = p.next[r]
			}
			continue
		}
		if p.segs[r] == 0 {
			return now // a new refresh starts (owed consumed, segments armed)
		}
		forced := p.owedN[r] >= maxFlex || (p.owedN[r] > 0 && now >= p.next[r])
		if forced || p.force[r] || p.rankIdle(r) {
			return now
		}
		if p.next[r] < ev {
			ev = p.next[r] // paused: resumes when idle or forced at the timer
		}
	}
	return ev
}

// Skip implements sched.RefreshPolicy: no per-cycle accounting.
func (p *Pausing) Skip(int64, int64) {}

// Tick implements sched.RefreshPolicy.
func (p *Pausing) Tick(now int64, _ bool) bool {
	tREFI := int64(p.v.Timing().TREFIab)
	dev := p.v.Dev()
	for r := 0; r < p.ranks; r++ {
		for now >= p.next[r] && p.owedN[r] < maxFlex {
			p.owedN[r]++
			p.next[r] += tREFI
		}
		if p.owedN[r] == 0 && p.segs[r] == 0 {
			p.setForce(r, false)
			continue
		}
		// Forced when the budget is exhausted: finish segments back to back.
		p.setForce(r, p.owedN[r] >= maxFlex || (p.owedN[r] > 0 && now >= p.next[r]))
		if p.segs[r] == 0 {
			// Start a new refresh (consume one owed REFab).
			p.owedN[r]--
			p.segs[r] = p.segments
		}
		// Pause: while demand is pending and we are not forced, yield the
		// slot — this is the refresh pausing point.
		if !p.force[r] && !p.rankIdle(r) {
			continue
		}
		cmd := dram.Cmd{Kind: dram.CmdREFab, Rank: r, RefDur: p.segDur, RefRows: p.segRows}
		if dev.CanIssue(cmd, now) {
			p.v.IssueCmd(cmd, now)
			p.segs[r]--
			return true
		}
		if p.force[r] && p.drainRank(r, now) {
			return true
		}
	}
	return false
}

func (p *Pausing) drainRank(rank int, now int64) bool {
	dev := p.v.Dev()
	for b := 0; b < p.banks; b++ {
		if dev.OpenRow(rank, b) == dram.NoRow {
			continue
		}
		cmd := dram.Cmd{Kind: dram.CmdPRE, Rank: rank, Bank: b}
		if dev.CanIssue(cmd, now) {
			p.v.IssueCmd(cmd, now)
			return true
		}
	}
	return false
}
