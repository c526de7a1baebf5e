package core

import (
	"dsarp/internal/dram"
	"dsarp/internal/sched"
)

// rankTimers is the bookkeeping the all-bank schedulers share (AllBank,
// Elastic, Adaptive, Pausing), which differ only in when a due refresh is
// released: each rank's next nominal REFab on a staggered tREFIab grid,
// its count of refreshes due but not yet issued, and the flag that holds
// demand off a rank whose refresh can wait no longer. Embedding it gives
// a policy that flag as the Blocked answer of every bank in the rank, and
// the no-op Skip of a rank-granular scheduler.
type rankTimers struct {
	ctl    *sched.Controller
	ranks  int
	banks  int
	tREFI  int64
	next   []int64 // per-rank next nominal refresh time
	owedN  []int64 // per-rank refreshes due but not yet issued
	forced []bool  // per-rank: the refresh is forced, demand is held
}

func newRankTimers(ctl *sched.Controller, seed int64) rankTimers {
	g := ctl.Dev().Geometry()
	tREFI := int64(ctl.Timing().TREFIab)
	return rankTimers{
		ctl:    ctl,
		ranks:  g.Ranks,
		banks:  g.Banks,
		tREFI:  tREFI,
		next:   staggeredTimers(seed, tREFI, g.Ranks),
		owedN:  make([]int64, g.Ranks),
		forced: make([]bool, g.Ranks),
	}
}

// staggeredTimers returns each rank's first nominal refresh time: a
// seed-derived phase, then the ranks tREFI/ranks apart so the ranks of a
// channel do not refresh together.
func staggeredTimers(seed, tREFI int64, ranks int) []int64 {
	stagger := tREFI / int64(ranks)
	base := phaseOffset(seed, stagger)
	next := make([]int64, ranks)
	for r := range next {
		next[r] = base + int64(r)*stagger
	}
	return next
}

// Blocked implements sched.RefreshPolicy: demand to the whole rank is
// held only while the rank's refresh is forced, that is, can no longer be
// postponed or paused.
func (t *rankTimers) Blocked(rank, _ int) bool { return t.forced[rank] }

// Skip implements sched.RefreshPolicy: no per-cycle accounting.
func (t *rankTimers) Skip(int64, int64) {}

// setForced updates a rank's forced flag, bumping the blocked epoch on
// change.
func (t *rankTimers) setForced(r int, v bool) {
	if t.forced[r] != v {
		t.forced[r] = v
		t.ctl.NoteBlockedChanged()
	}
}

// rankIdle reports whether the rank has no queued demand.
func (t *rankTimers) rankIdle(rank int) bool { return t.ctl.PendingRankDemand(rank) == 0 }

// accrue counts the rank's refreshes whose nominal time has come, up to
// the JEDEC postponement budget of maxFlex.
func (t *rankTimers) accrue(r int, now int64) {
	for now >= t.next[r] && t.owedN[r] < maxFlex {
		t.owedN[r]++
		t.next[r] += t.tREFI
	}
}

// overdue reports whether the rank's owed refreshes can wait no longer:
// the budget is spent, or one more has come due behind the owed ones.
func (t *rankTimers) overdue(r int, now int64) bool {
	return t.owedN[r] >= maxFlex || (t.owedN[r] > 0 && now >= t.next[r])
}

// drainRank issues one precharge toward making the rank refreshable.
func (t *rankTimers) drainRank(rank int, now int64) bool {
	for b := 0; b < t.banks; b++ {
		if drainBank(t.ctl, rank, b, now) {
			return true
		}
	}
	return false
}

// drainBank precharges a bank whose open row stands in the way of its
// pending refresh and reports whether it did. With SARP only a row in the
// subarray being refreshed is in the way; every other row keeps serving
// during the refresh.
func drainBank(ctl *sched.Controller, rank, bank int, now int64) bool {
	dev := ctl.Dev()
	open := dev.OpenRow(rank, bank)
	if open == dram.NoRow {
		return false
	}
	if dev.SARP() && dev.Geometry().SubarrayOf(open) != dev.RefreshUnit(rank).PeekSubarray(bank) {
		return false
	}
	cmd := dram.Cmd{Kind: dram.CmdPRE, Rank: rank, Bank: bank}
	if !dev.CanIssue(cmd, now) {
		return false
	}
	ctl.IssueCmd(cmd, now)
	return true
}
