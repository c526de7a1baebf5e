package core

import (
	"math"

	"dsarp/internal/dram"
	"dsarp/internal/sched"
	"dsarp/internal/snap"
)

// DARP implements Dynamic Access Refresh Parallelization (paper §4.2), the
// first of the paper's two mechanisms. It schedules per-bank refreshes from
// the memory controller with two components:
//
//  1. Out-of-order per-bank refresh (Fig. 8): at each tREFIpb slot the
//     nominal round-robin bank R is refreshed only if it is idle; otherwise
//     the refresh is postponed (up to 8 per bank, per the erratum's
//     0 <= ref_credit <= 8 rule) and idle banks are refreshed instead in
//     otherwise-empty command slots, either catching up postponed refreshes
//     or pulling future ones in (up to 8 ahead).
//  2. Write-refresh parallelization (Algorithm 1): while the controller
//     drains a write batch, keep a refresh in flight on the bank with the
//     fewest pending demand requests, hiding refresh latency behind writes.
//
// Paired with a SARP-enabled device this is the paper's DSARP.
type DARP struct {
	ctl    *sched.Controller
	dev    *dram.Device // ctl.Dev(), cached: immutable for the policy's lifetime
	slab   []int        // ctl.PendingDemandSlab(), cached: stable for the controller's lifetime
	opts   DARPOptions
	rng    *snap.Rand // counts its draws so snapshots can replay the stream
	scheds []*bankSchedule
	forced [][]bool // rank x bank: refresh overdue, demand held
	slotAt []int64  // per rank: start of the next unobserved tREFIpb slot
	ranks  int
	banks  int
	elig   []int // scratch buffer for write-mode bank selection

	// Cached pull-in eligibility: the per-rank lists of banks that are
	// demand-free and past their pull-in threshold — the candidate set of
	// Fig. 8's idle-bank refresh, consumed by Tick's pickIdleBank,
	// NextDeadline's step-4 deadline, and Skip's rng replay. Valid while
	// the controller's demand zero epoch is unchanged, no refresh has been
	// recorded, and now is before the next pull-in crossing (eligJoin).
	eligValid bool
	eligEpoch uint64
	eligJoin  int64
	eligList  [][]int

	// Cached write-mode pick failure: while wmValid and the zero epoch is
	// unchanged, pickWriteModeBank(r) is known to find no candidate before
	// wmNextAt[r], so the per-cycle writeback sweep skips the bank scan.
	// Only the no-candidate outcome is cached — it depends solely on credit
	// thresholds (time crossings), refresh records, and queue emptiness;
	// the min-pending selection itself depends on exact queue depths and is
	// never cached. Invalidated by any recorded refresh (tryRefresh) and by
	// demand zero crossings.
	wmValid     bool
	wmZeroEpoch uint64
	wmNextAt    []int64
}

// DARPOptions toggle DARP components for the paper's §6.1.2 breakdown and
// the DESIGN.md ablations.
type DARPOptions struct {
	// WriteRefresh enables write-refresh parallelization (off = the
	// out-of-order-only configuration of §6.1.2).
	WriteRefresh bool
	// RandomWritePick is ablation D2: pick a random bank instead of the
	// min-pending bank during writeback mode.
	RandomWritePick bool
	// GreedyIdlePick is ablation D5: among idle banks pick the one with the
	// largest refresh debt instead of a random one.
	GreedyIdlePick bool
	// MaxPostpone is ablation D1: the postpone/pull-in bound (0 = the
	// erratum-compliant 8). The paper's original, pre-erratum rule
	// effectively allowed 16 — which violates the JEDEC 9*tREFIpb ceiling,
	// observable with the checker's VerifyRetention.
	MaxPostpone int
}

// NewDARP builds a DARP policy over a controller. seed drives the random
// idle-bank selection of Fig. 8 (step 3) deterministically.
func NewDARP(ctl *sched.Controller, opts DARPOptions, seed int64) *DARP {
	g := ctl.Dev().Geometry()
	p := &DARP{
		ctl:    ctl,
		dev:    ctl.Dev(),
		slab:   ctl.PendingDemandSlab(),
		opts:   opts,
		rng:    snap.NewRand(seed),
		scheds: make([]*bankSchedule, g.Ranks),
		forced: make([][]bool, g.Ranks),
		slotAt: make([]int64, g.Ranks),
		ranks:  g.Ranks,
		banks:  g.Banks,
	}
	tREFIpb := int64(ctl.Timing().TREFIpb)
	base := phaseOffset(seed, tREFIpb)
	for r := 0; r < g.Ranks; r++ {
		p.scheds[r] = newBankSchedule(g.Banks, tREFIpb, int64(opts.MaxPostpone), base)
		p.forced[r] = make([]bool, g.Banks)
	}
	return p
}

// Name implements sched.RefreshPolicy.
func (p *DARP) Name() string {
	switch {
	case p.dev.SARP():
		return "DSARP"
	case !p.opts.WriteRefresh:
		return "DARP-ooo"
	default:
		return "DARP"
	}
}

// Blocked implements sched.RefreshPolicy: a bank is held only when it has
// exhausted its postponement credit and must refresh now.
func (p *DARP) Blocked(rank, bank int) bool { return p.forced[rank][bank] }

// setForced updates a bank's forced flag, bumping the controller's blocked
// epoch on change.
func (p *DARP) setForced(r, b int, v bool) {
	if p.forced[r][b] != v {
		p.forced[r][b] = v
		p.ctl.NoteBlockedChanged()
	}
}

// Tick implements sched.RefreshPolicy, following the decision flow of the
// paper's Fig. 8 with Algorithm 1 layered on top during writeback mode.
func (p *DARP) Tick(now int64, demandReady bool) bool {
	dev := p.dev

	// 1. Mandatory refreshes: banks out of postponement credit. The bank is
	// blocked from demand, drained, and refreshed as soon as possible. While
	// every bank still has credit (now < minForcedAt) the whole sweep is a
	// no-op: any stale forced flag would imply a bank whose credit is still
	// exhausted, which would put minForcedAt in the past.
	for r := 0; r < p.ranks; r++ {
		sch := p.scheds[r]
		if now < sch.minForcedAt {
			continue
		}
		for b := 0; b < p.banks; b++ {
			if !sch.mustRefresh(b, now) {
				p.setForced(r, b, false)
				continue
			}
			p.setForced(r, b, true)
			if p.tryRefresh(r, b, now) {
				p.setForced(r, b, sch.mustRefresh(b, now))
				return true
			}
			if drainBank(p.ctl, r, b, now) {
				return true
			}
		}
	}

	// 2. Write-refresh parallelization (Algorithm 1): during writeback mode
	// keep one refresh in flight, on the bank with the fewest pending
	// demand requests (its delay least extends the drain).
	if p.opts.WriteRefresh && p.ctl.WriteMode() {
		if ze := p.ctl.DemandZeroEpoch(); !p.wmValid || p.wmZeroEpoch != ze {
			if p.wmNextAt == nil {
				p.wmNextAt = make([]int64, p.ranks)
			}
			for r := range p.wmNextAt {
				p.wmNextAt[r] = math.MinInt64
			}
			p.wmValid, p.wmZeroEpoch = true, ze
		}
		for r := 0; r < p.ranks; r++ {
			if now < p.wmNextAt[r] {
				continue // a failed pick proved no candidate exists yet
			}
			if now < dev.PBRefBusyUntil(r) || dev.RankRefreshing(r, now) {
				continue
			}
			b, ok := p.pickWriteModeBank(r, now)
			if !ok {
				p.wmNextAt[r] = p.wmEligBound(r, now)
				continue
			}
			if p.tryRefresh(r, b, now) {
				return true
			}
		}
	}

	// 3. Out-of-order per-bank refresh (Fig. 8). At a tREFIpb slot boundary
	// the nominal bank R is refreshed immediately if idle; a busy R is
	// postponed (debt accrues passively in the schedule).
	for r := 0; r < p.ranks; r++ {
		sch := p.scheds[r]
		if now >= p.slotAt[r] {
			p.slotAt[r] = (now/sch.tREFIpb + 1) * sch.tREFIpb
			b := sch.slotBank(now)
			if sch.owed(b, now) > 0 && p.slab[r*p.banks+b] == 0 && p.tryRefresh(r, b, now) {
				return true
			}
		}
	}

	// Otherwise, refresh an idle bank only in command slots demand cannot
	// use ("Can issue a demand request?" -> No). The pick must run before
	// the busy check — its rng draw is part of the replayed sequence — but
	// any REFpb is guaranteed illegal while a refresh occupies the rank, so
	// the cheaper RefreshBusyUntil read replaces a doomed CanIssue.
	if demandReady {
		return false
	}
	p.eligCache(now) // once for all ranks; the picks below read the lists
	for r := 0; r < p.ranks; r++ {
		if b, ok := p.pickIdleBank(r, now); ok && now >= dev.RefreshBusyUntil(r) &&
			p.tryRefresh(r, b, now) {
			return true
		}
	}
	return false
}

// NextDeadline implements sched.RefreshPolicy. Inside a skip window demand
// is never issuable, so the idle-bank refresh step of Fig. 8 runs every
// cycle — and it consumes one rng draw per rank with a pull-in-eligible
// bank. Those draws are still skippable while a refresh is in progress on
// the rank: every REFpb the pick could attempt is guaranteed illegal until
// RefreshBusyUntil, the eligible set cannot change (pull-in credit only
// crosses thresholds, demand is frozen), and Skip replays the draws
// verbatim. The deadline is the earliest of: a bank running out of
// postponement credit, a tREFIpb slot boundary, a refresh window ending
// with an eligible bank waiting, or a bank newly gaining pull-in
// eligibility — with writeback mode pinning the policy to cycle stepping.
func (p *DARP) NextDeadline(now int64) int64 {
	ev := int64(math.MaxInt64)
	for r := range p.scheds {
		// Step 1: mandatory refreshes once a bank's credit runs out.
		if now >= p.scheds[r].minForcedAt {
			return now
		}
		if p.scheds[r].minForcedAt < ev {
			ev = p.scheds[r].minForcedAt
		}
		// Step 3: tREFIpb slot boundaries update slotAt and may refresh.
		if now >= p.slotAt[r] {
			return now
		}
		if p.slotAt[r] < ev {
			ev = p.slotAt[r]
		}
	}
	// Step 2: write-refresh parallelization only acts on a rank whose
	// previous refresh has completed — while every rank is still busy the
	// sweep touches nothing (the min-pending pick runs only after the
	// rank clears), so the next action is the earliest completion.
	dev := p.dev
	if p.opts.WriteRefresh && p.ctl.WriteMode() {
		for r := range p.scheds {
			busy := dev.RefreshBusyUntil(r)
			if now >= busy {
				return now
			}
			if busy < ev {
				ev = busy
			}
		}
	}
	// Step 4: idle-bank selection.
	p.eligCache(now)
	for r := range p.scheds {
		if len(p.eligList[r]) == 0 {
			continue
		}
		busyUntil := dev.RefreshBusyUntil(r)
		if now >= busyUntil {
			return now // a picked refresh could actually issue
		}
		if busyUntil < ev {
			ev = busyUntil
		}
	}
	if p.eligJoin < ev {
		ev = p.eligJoin // a bank joins the eligible set here
	}
	return ev
}

// eligCache (re)derives the per-rank pull-in-eligible bank counts. The
// cache is exact, not heuristic: the counts can only change when a bank's
// or rank's queued demand crosses empty <-> nonempty (the zero epoch — the
// counts themselves don't matter, only which are zero), a refresh is
// recorded (pull-in thresholds move), or the clock reaches the next pull-in
// crossing — all of which invalidate it.
func (p *DARP) eligCache(now int64) {
	ep := p.ctl.DemandZeroEpoch()
	if p.eligValid && p.eligEpoch == ep && now < p.eligJoin {
		return
	}
	if p.eligList == nil {
		p.eligList = make([][]int, len(p.scheds))
		for r := range p.eligList {
			p.eligList[r] = make([]int, 0, p.banks)
		}
	}
	join := int64(math.MaxInt64)
	slab := p.slab
	for r := range p.scheds {
		sch := p.scheds[r]
		rankIdle := p.ctl.PendingRankDemand(r) == 0
		elig := p.eligList[r][:0]
		base := r * p.banks
		for b := 0; b < p.banks; b++ {
			if !rankIdle && slab[base+b] != 0 {
				continue
			}
			if now >= sch.pullOkAt[b] {
				elig = append(elig, b)
			} else if sch.pullOkAt[b] < join {
				join = sch.pullOkAt[b]
			}
		}
		p.eligList[r] = elig
	}
	p.eligJoin = join
	p.eligEpoch = ep
	p.eligValid = true
}

// Skip implements sched.RefreshPolicy. Refresh debt accrues passively
// through the bank schedules' absolute-time thresholds; the one per-cycle
// effect to replay is the idle-bank pick of Fig. 8 step 3, which draws from
// the rng once per rank with a non-empty eligible set — NextDeadline only
// grants windows in which those sets are constant and every pick's refresh
// attempt is rejected by the in-progress refresh.
func (p *DARP) Skip(from, to int64) {
	if p.opts.GreedyIdlePick {
		return // deterministic pick: rejected attempts touch no state
	}
	p.eligCache(from)
	any := false
	for _, elig := range p.eligList {
		if len(elig) > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	for u := from; u < to; u++ {
		for _, elig := range p.eligList {
			if len(elig) > 0 {
				p.rng.Intn(len(elig))
			}
		}
	}
}

// tryRefresh issues REFpb to (rank, bank) if the device accepts it.
func (p *DARP) tryRefresh(rank, bank int, now int64) bool {
	cmd := dram.Cmd{Kind: dram.CmdREFpb, Rank: rank, Bank: bank}
	if !p.dev.CanIssue(cmd, now) {
		return false
	}
	p.ctl.IssueCmd(cmd, now)
	p.scheds[rank].record(bank)
	p.eligValid = false // pull-in thresholds moved
	p.wmValid = false
	return true
}

// wmEligBound returns a cycle before which pickWriteModeBank(rank) cannot
// find a candidate, given it just failed at now and no refresh is recorded
// and no queue crosses empty in between (both invalidate the cache). Each
// failing bank's earliest possible eligibility is bounded below by a pure
// time threshold: its pull-in crossing if its credit disallows a pull-in,
// else — the bank had queued demand and no refresh debt — the next nominal
// slot where its debt turns positive.
func (p *DARP) wmEligBound(rank int, now int64) int64 {
	sch := p.scheds[rank]
	bound := int64(math.MaxInt64)
	for b := 0; b < p.banks; b++ {
		var lb int64
		if !sch.canPullIn(b, now) {
			lb = sch.pullOkAt[b]
		} else {
			lb = sch.phase[b] + sch.issued[b]*sch.period
		}
		if lb < bound {
			bound = lb
		}
	}
	return bound
}

// pickWriteModeBank selects the refresh candidate during writeback mode:
// the bank with the lowest pending demand whose credit allows a pull-in.
func (p *DARP) pickWriteModeBank(rank int, now int64) (int, bool) {
	sch := p.scheds[rank]
	if p.opts.RandomWritePick {
		elig := p.elig[:0]
		for b := 0; b < p.banks; b++ {
			if sch.canPullIn(b, now) {
				elig = append(elig, b)
			}
		}
		p.elig = elig
		if len(elig) == 0 {
			return 0, false
		}
		return elig[p.rng.Intn(len(elig))], true
	}
	best, bestPending, found := 0, 0, false
	slab := p.slab
	for b := 0; b < p.banks; b++ {
		if !sch.canPullIn(b, now) {
			continue
		}
		pend := slab[rank*p.banks+b]
		// A bank with queued demand only qualifies when it actually owes a
		// refresh: pulling future refreshes onto draining banks delays the
		// writes and stretches the writeback period, the exact effect
		// Algorithm 1's min-pending choice is meant to minimize.
		if pend > 0 && sch.owed(b, now) <= 0 {
			continue
		}
		if !found || pend < bestPending {
			best, bestPending, found = b, pend, true
		}
	}
	return best, found
}

// pickIdleBank selects a bank with no pending demand whose credit allows a
// refresh (postponed catch-up first by construction of owed, or a pull-in).
// The candidate set comes from the eligibility cache, which tracks exactly
// this condition and rebuilds in ascending bank order, so the rng draw is
// identical to an inline scan. The caller must have run eligCache(now).
func (p *DARP) pickIdleBank(rank int, now int64) (int, bool) {
	elig := p.eligList[rank]
	if len(elig) == 0 {
		return 0, false
	}
	if p.opts.GreedyIdlePick {
		sch := p.scheds[rank]
		best := elig[0]
		for _, b := range elig[1:] {
			if sch.owed(b, now) > sch.owed(best, now) {
				best = b
			}
		}
		return best, true
	}
	return elig[p.rng.Intn(len(elig))], true
}

// Owed exposes a bank's current refresh debt (tests and diagnostics).
func (p *DARP) Owed(rank, bank int, now int64) int64 { return p.scheds[rank].owed(bank, now) }
