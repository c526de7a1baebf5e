package core

import (
	"math"

	"dsarp/internal/dram"
	"dsarp/internal/sched"
)

// Elastic implements elastic refresh (Stuecheli et al., MICRO 2010), the
// refresh-scheduling baseline the paper compares against in §6.1.1 and §7.
// An all-bank refresh that comes due is postponed while the rank is serving
// demand; a postponed refresh is released once the rank has been idle long
// enough that the predicted idle period can absorb tRFCab. The idle-time
// threshold shrinks as more refreshes pile up (the "elastic" part), and at
// the JEDEC limit of 8 postponed refreshes the refresh is forced.
//
// As the paper observes (§7), the scheme fades when average rank idle
// periods are shorter than tRFCab — exactly the memory-intensive, high-
// density cases the evaluation stresses — so it tracks REFab closely there.
type Elastic struct {
	rankTimers
	idleRun []int64 // consecutive idle cycles per rank
	avgIdle []float64
}

// NewElastic builds the elastic refresh policy over a controller. seed
// offsets the refresh timer phase so independent channels decorrelate.
func NewElastic(ctl *sched.Controller, seed int64) *Elastic {
	p := &Elastic{rankTimers: newRankTimers(ctl, seed)}
	p.idleRun = make([]int64, p.ranks)
	p.avgIdle = make([]float64, p.ranks)
	for r := range p.avgIdle {
		p.avgIdle[r] = float64(ctl.Timing().TRFCab) // optimistic prior
	}
	return p
}

// Name implements sched.RefreshPolicy.
func (p *Elastic) Name() string { return "Elastic" }

// threshold is the idle-run length required before releasing a postponed
// refresh; it relaxes linearly toward zero as the postponement budget is
// consumed.
func (p *Elastic) threshold(rank int) int64 {
	n := p.owedN[rank]
	if n >= maxFlex {
		return 0
	}
	return int64(p.avgIdle[rank] * float64(maxFlex-n) / float64(maxFlex))
}

// NextDeadline implements sched.RefreshPolicy. Outside of a skip window the
// policy is active whenever a timer fires, a rank is forced, or a postponed
// refresh could be released; the idle-time predictor's idleRun counter grows
// by one per elided Tick (replayed by Skip), so the release point of a
// postponed refresh on an idle rank is a straight-line extrapolation.
func (p *Elastic) NextDeadline(now int64) int64 {
	ev := int64(math.MaxInt64)
	for r := 0; r < p.ranks; r++ {
		if p.owedN[r] < maxFlex {
			if now >= p.next[r] {
				return now // owed count accrues this cycle
			}
			if p.next[r] < ev {
				ev = p.next[r]
			}
		}
		if p.owedN[r] == 0 {
			continue
		}
		if p.owedN[r] >= maxFlex || p.forced[r] {
			return now // forced: probing CanIssue/drain every cycle
		}
		if p.rankIdle(r) {
			// Tick at cycle u sees idleRun[r] + (u-now+1); release when it
			// reaches the threshold.
			need := p.threshold(r) - p.idleRun[r] - 1
			if need > 0 {
				if now+need < ev {
					ev = now + need
				}
				continue
			}
			// Released but not forced: the policy probes CanIssue(REFab)
			// every cycle without draining; refabProbeDeadline names the
			// first cycle the probe could succeed.
			e := refabProbeDeadline(p.ctl.Dev(), r, p.banks, now)
			if e <= now {
				return now
			}
			if e < ev {
				ev = e
			}
		}
	}
	return ev
}

// Skip implements sched.RefreshPolicy: each elided Tick would have extended
// the idle run of every idle rank by one cycle. (A busy rank's idle run was
// already folded into the moving average and zeroed by the last real Tick,
// and rank idleness cannot change inside a skip window.)
func (p *Elastic) Skip(from, to int64) {
	for r := 0; r < p.ranks; r++ {
		if p.rankIdle(r) {
			p.idleRun[r] += to - from
		}
	}
}

// Tick implements sched.RefreshPolicy.
func (p *Elastic) Tick(now int64, _ bool) bool {
	dev := p.ctl.Dev()
	issuedSlot := false
	for r := 0; r < p.ranks; r++ {
		p.accrue(r, now)
		idle := p.rankIdle(r)
		if idle {
			p.idleRun[r]++
		} else {
			if p.idleRun[r] > 0 {
				// End of an idle period: fold it into the moving average
				// the idle-time predictor uses.
				const alpha = 0.25
				p.avgIdle[r] = (1-alpha)*p.avgIdle[r] + alpha*float64(p.idleRun[r])
			}
			p.idleRun[r] = 0
		}
		if issuedSlot || p.owedN[r] == 0 {
			continue
		}

		p.setForced(r, p.overdue(r, now))
		release := p.forced[r] || (idle && p.idleRun[r] >= p.threshold(r))
		if !release {
			continue
		}
		cmd := dram.Cmd{Kind: dram.CmdREFab, Rank: r}
		if dev.CanIssue(cmd, now) {
			p.ctl.IssueCmd(cmd, now)
			p.owedN[r]--
			p.setForced(r, false)
			issuedSlot = true
			continue
		}
		if p.forced[r] && p.drainRank(r, now) {
			issuedSlot = true
		}
	}
	return issuedSlot
}
