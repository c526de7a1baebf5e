package sched

import (
	"fmt"
	"math"

	"dsarp/internal/dram"
	"dsarp/internal/fifo"
	"dsarp/internal/timing"
)

// Config sets controller queue and page-policy parameters.
type Config struct {
	ReadQueueCap  int
	WriteQueueCap int
	// WriteHigh/WriteLow are the write-batching watermarks: draining starts
	// when the write queue reaches WriteHigh and stops at WriteLow (the
	// paper's low watermark of 32; the high watermark is not specified in
	// the paper, we default to 3/4 of the queue).
	WriteHigh int
	WriteLow  int
	// OpenRow switches to an open-row page policy (ablation D4). Default is
	// the paper's closed-row policy: auto-precharge when no queued row hit
	// remains.
	OpenRow bool
}

// DefaultConfig mirrors Table 1 of the paper.
func DefaultConfig() Config {
	return Config{ReadQueueCap: 64, WriteQueueCap: 64, WriteHigh: 48, WriteLow: 32}
}

// Controller schedules one DRAM channel.
//
// Requests are indexed per (rank, bank) rather than kept in flat queues,
// and FR-FCFS selection reads incrementally maintained candidate registers
// instead of rescanning buckets: each bucket tracks the oldest request for
// the bank's open row and the open-row hit count, repaired in O(1) on
// enqueue, dequeue, row-open, and row-close (the controller forwards every
// ACT/PRE/auto-precharge it or its refresh policy issues via noteIssue).
// Device legality probes are split into a hoisted device-global gate plus
// one per-bank slab read (dram.EarliestColumnSplit/EarliestACTSplit), so a
// demand scan touches only the banks that could legally issue now, with a
// couple of loads per bank. Between cycles the controller caches a failed
// demand-command search together with the earliest cycle the device could
// accept any rejected candidate, and skips re-scanning until that cycle —
// or until an enqueue, dequeue, issued command, write-mode flip, or
// refresh-policy block change invalidates the cached miss. All layers are
// exact: the controller issues the same command stream, cycle for cycle, as
// the seed's flat-scan implementation (pinned by TestGoldenFixedTraceStats
// and the register-vs-rescan differential fuzz in controller_fuzz_test.go).
type Controller struct {
	dev    *dram.Device
	tp     timing.Params
	geom   dram.Geometry
	cfg    Config
	policy RefreshPolicy

	readIx     queueIndex
	writeIx    queueIndex
	writeAddrs map[uint64]struct{} // queued write addresses, packed (forwarding/merge probes)
	pending    *bankPending

	// Reads awaiting data return, split into two FIFOs that are each
	// monotone in Done by construction: issued reads return a fixed CL+BL
	// after their nondecreasing issue cycles, forwarded reads complete
	// now+1. Completion pops due heads in stamp (insertion) order, so the
	// callback sequence is identical to scanning one flat list — at O(1)
	// per completed read instead of O(in-flight) per completing cycle.
	inflightRd    []*Request
	rdHead        int
	inflightFwd   []*Request
	fwdHead       int
	inflightStamp int64
	inflightMin   int64 // earliest Done among in-flight reads (MaxInt64 when none)

	wmode bool
	seq   int64 // next admission sequence number

	// Cached demand-search miss: while missValid, chooseDemand would find no
	// issuable command before missNextTry, provided the policy's blocked
	// epoch still matches missEpoch and no invalidating event occurred.
	missValid   bool
	missNextTry int64
	missEpoch   uint64

	// blockedEpoch is bumped by the attached policy via NoteBlockedChanged
	// whenever a Blocked answer may have changed. Controller-owned so the
	// per-cycle staleness checks read a field instead of dispatching
	// through the policy interface.
	blockedEpoch uint64

	// demandEpoch counts admissions and dequeues. Nothing reads it, but
	// snapshots carry it; the next snap.Version bump deletes it.
	demandEpoch uint64

	// Snapshot of the policy's Blocked answers, rebuilt whenever
	// blockedEpoch moves (the NoteBlockedChanged contract guarantees every
	// change bumps it). The snapshot turns an interface call per probed
	// bank into one slice read — and blockedAny short-circuits the scan
	// entirely in the common nothing-blocked state.
	blockedSeen uint64
	blockedInit bool
	blockedAny  bool
	blockedMask []bool // rank*banks

	// Memoized NextEvent answer. The event cycle is absolute and invariant
	// under Skip (every policy deadline is an absolute-time crossing), so
	// the memo is dropped only when state forks: a Tick ran, a request was
	// admitted, or a policy command issued.
	evCached int64
	evValid  bool

	// Per-rank scratch for the demand scan: the rank-global ACT gate is
	// computed lazily, at most once per scan (actTok marks which scan a
	// cached value belongs to), since most scans resolve in the column
	// class without ever needing it.
	actGlobal []int64
	actTok    []uint64
	scanTok   uint64

	reqFree []*Request // completed requests awaiting reuse (NewRequest), capped

	stats Stats
}

// NewController builds a controller over dev. Its refresh policy is
// NoRefresh until SetPolicy attaches one.
func NewController(dev *dram.Device, cfg Config) *Controller {
	if cfg.ReadQueueCap <= 0 || cfg.WriteQueueCap <= 0 {
		panic(fmt.Sprintf("sched: queue capacities must be positive: %+v", cfg))
	}
	if cfg.WriteLow < 0 || cfg.WriteHigh > cfg.WriteQueueCap || cfg.WriteLow >= cfg.WriteHigh {
		panic(fmt.Sprintf("sched: invalid write watermarks: %+v", cfg))
	}
	g := dev.Geometry()
	return &Controller{
		dev:         dev,
		tp:          dev.Timing(),
		geom:        g,
		cfg:         cfg,
		policy:      NoRefresh{},
		readIx:      newQueueIndex(g.Ranks, g.Banks),
		writeIx:     newQueueIndex(g.Ranks, g.Banks),
		writeAddrs:  make(map[uint64]struct{}, cfg.WriteQueueCap),
		pending:     newBankPending(g.Ranks, g.Banks),
		inflightMin: math.MaxInt64,
		actGlobal:   make([]int64, g.Ranks),
		actTok:      make([]uint64, g.Ranks),
	}
}

// Policy returns the attached refresh policy.
func (c *Controller) Policy() RefreshPolicy { return c.policy }

// SetPolicy replaces the refresh policy. Policies are built over the
// controller, so construction is two-phase: NewController(dev, cfg) then
// SetPolicy(core.New(kind, ctrl, seed)).
func (c *Controller) SetPolicy(p RefreshPolicy) {
	if p == nil {
		p = NoRefresh{}
	}
	c.policy = p
	c.missValid = false
	c.blockedInit = false
	c.evValid = false
}

// Stats returns accumulated controller statistics.
func (c *Controller) Stats() Stats { return c.stats }

// The methods below are the surface a refresh policy drives the
// controller through.

// Dev is the DRAM device behind this channel.
func (c *Controller) Dev() *dram.Device { return c.dev }

// Timing is the active timing parameter set.
func (c *Controller) Timing() timing.Params { return c.tp }

// PendingDemandSlab is the live per-bank reads+writes table, indexed by
// flat bank id rank*Banks+bank. Policies that sweep every bank each
// decision (DARP's eligibility rebuild) read it directly. The returned
// slice is stable for the controller's lifetime — policies may cache it at
// construction — but must never be mutated.
func (c *Controller) PendingDemandSlab() []int { return c.pending.demand }

// PendingRankDemand is the number of queued reads+writes for a whole rank
// — the O(1) form of the per-bank sum that idle-rank checks (Elastic, AR,
// Pausing) would otherwise rebuild every cycle.
func (c *Controller) PendingRankDemand(rank int) int { return c.pending.rank[rank] }

// WriteMode reports whether the controller is draining a write batch.
func (c *Controller) WriteMode() bool { return c.wmode }

// DemandZeroEpoch is a counter that bumps exactly when some bank's or
// rank's pending-demand count crosses 0 <-> nonzero. Policies whose cached
// decisions depend only on which banks/ranks are idle key on it: under
// saturated traffic the counts move every cycle but rarely touch zero, so
// the cache survives.
func (c *Controller) DemandZeroEpoch() uint64 { return c.pending.zeroEpoch }

// NoteBlockedChanged must be called by the attached refresh policy
// whenever any Blocked answer may have changed. Policies unblock on their
// own schedule without issuing a command, so the controller keeps a
// blocked epoch to know when a cached scheduling decision that honored the
// old block state must be re-derived; owning the counter (instead of
// polling the policy every cycle) keeps the per-cycle checks to one field
// read. A policy may call spuriously (that only costs a re-scan) but must
// never miss a change.
func (c *Controller) NoteBlockedChanged() { c.blockedEpoch++ }

// IssueCmd issues a command on behalf of the policy, consuming the cycle's
// command slot. The command must satisfy Dev().CanIssue.
func (c *Controller) IssueCmd(cmd dram.Cmd, now int64) {
	c.dev.Issue(cmd, now)
	c.noteIssue(cmd)
	c.missValid = false
	c.evValid = false
	if cmd.Kind.IsRefresh() {
		c.stats.RefreshSlots++
	}
}

// noteIssue keeps the queue indexes' open-row candidate registers in sync
// with the device: every command that opens or closes a row — whether issued
// by the demand scheduler or by the refresh policy (drain precharges) —
// flows through here. Refresh commands never move a row, so they need no
// hook.
func (c *Controller) noteIssue(cmd dram.Cmd) {
	bi := cmd.Rank*c.geom.Banks + cmd.Bank
	switch cmd.Kind {
	case dram.CmdACT:
		c.readIx.onRowOpen(bi, cmd.Row)
		c.writeIx.onRowOpen(bi, cmd.Row)
	case dram.CmdPRE, dram.CmdRDA, dram.CmdWRA:
		c.readIx.onRowClose(bi)
		c.writeIx.onRowClose(bi)
	}
}

// NewRequest returns a zeroed Request, recycling completed ones. A request
// passed to EnqueueRead/EnqueueWrite becomes controller-owned regardless of
// the result: the controller recycles a read after its completion callback
// runs, a write after it issues (or merges), and a rejected request
// immediately — so callers must not retain one past the enqueue call, and
// must retry a rejection with a fresh request.
func (c *Controller) NewRequest() *Request {
	if n := len(c.reqFree); n > 0 {
		req := c.reqFree[n-1]
		c.reqFree = c.reqFree[:n-1]
		*req = Request{}
		return req
	}
	return &Request{}
}

func (c *Controller) recycle(req *Request) {
	// Cap the pool at the maximum pooled working set (both queues plus a
	// generous in-flight margin): drivers that allocate their own requests
	// and never call NewRequest would otherwise grow it one entry per
	// request, forever.
	if len(c.reqFree) < 2*(c.cfg.ReadQueueCap+c.cfg.WriteQueueCap) {
		c.reqFree = append(c.reqFree, req)
	}
}

// WriteQueueLen returns the current write queue occupancy.
func (c *Controller) WriteQueueLen() int { return c.writeIx.n }

// noteArrival tightens the cached demand-search miss for a newly admitted
// request instead of discarding it. The cached miss promised no command is
// issuable before missNextTry; the new request is the only candidate that
// scan did not consider, and it cannot issue (or free its bank via a
// conflict precharge) before its own device-timing bound, so the promise
// survives with the bound folded in. Arrivals the current queue selection
// does not even scan — writes while reads are being served, reads during a
// writeback drain — leave the cache untouched: they cannot change the
// scan's outcome until a mode flip or issue invalidates it anyway.
func (c *Controller) noteArrival(req *Request, now int64) {
	if !c.missValid {
		return
	}
	if req.IsWrite {
		if !c.wmode && c.readIx.n > 0 {
			return
		}
	} else if c.wmode {
		return
	}
	var e int64
	open := c.dev.OpenRow(req.Addr.Rank, req.Addr.Bank)
	switch {
	case open == req.Addr.Row:
		e = c.dev.EarliestColumn(req.Addr.Rank, req.Addr.Bank, req.IsWrite)
	case open == dram.NoRow:
		e = c.dev.EarliestACT(req.Addr.Rank, req.Addr.Bank)
	default:
		e = c.dev.EarliestPRE(req.Addr.Rank, req.Addr.Bank)
	}
	if e <= now {
		c.missValid = false
		return
	}
	if e < c.missNextTry {
		c.missNextTry = e
	}
}

// packAddr collapses a DRAM address into one word so the write-address set
// hashes a uint64 instead of a four-int struct. Field widths cover any
// realistic geometry: 256 ranks, 4096 banks, 256M rows, 64K columns.
func packAddr(a dram.Addr) uint64 {
	return uint64(a.Rank)<<56 | uint64(a.Bank)<<44 | uint64(a.Row)<<16 | uint64(a.Col)
}

// EnqueueRead admits a read request; it returns false when the read queue is
// full (the caller must retry — this is MSHR backpressure). A read that hits
// a queued write is forwarded from the write queue without touching DRAM.
func (c *Controller) EnqueueRead(req *Request, now int64) bool {
	if _, ok := c.writeAddrs[packAddr(req.Addr)]; ok {
		req.Arrive = now
		req.Done = now + 1
		c.addInflightFwd(req)
		c.evValid = false
		c.stats.ForwardedReads++
		return true
	}
	if c.readIx.n >= c.cfg.ReadQueueCap {
		c.stats.ReadQueueFullStalls++
		c.recycle(req) // rejected: the caller retries with a fresh request
		return false
	}
	req.Arrive = now
	req.seq = c.seq
	c.seq++
	c.readIx.add(req)
	c.pending.add(req, 1)
	c.noteArrival(req, now)
	c.demandEpoch++
	c.evValid = false
	return true
}

// EnqueueWrite admits a write request; it returns false when the write queue
// is full. Writes to an already-queued address are merged.
func (c *Controller) EnqueueWrite(req *Request, now int64) bool {
	if _, ok := c.writeAddrs[packAddr(req.Addr)]; ok {
		c.stats.MergedWrites++
		c.recycle(req) // merged: the queued write stands in for it
		return true
	}
	if c.writeIx.n >= c.cfg.WriteQueueCap {
		c.stats.WriteQueueFullStalls++
		c.recycle(req) // rejected: the caller retries with a fresh request
		return false
	}
	req.Arrive = now
	req.seq = c.seq
	c.seq++
	c.writeIx.add(req)
	c.writeAddrs[packAddr(req.Addr)] = struct{}{}
	c.pending.add(req, 1)
	c.noteArrival(req, now)
	c.demandEpoch++
	c.evValid = false
	return true
}

// Tick advances the controller one DRAM cycle: it completes returned reads,
// updates writeback mode, lets the refresh policy claim the command slot,
// and otherwise issues the best demand command (FR-FCFS).
//
// Like cpu.Core.Tick, it first consults its own NextEvent: when this cycle
// provably holds no completion, no mode flip, no demand scan, and no
// refresh-policy action, the whole Tick is the linear accounting Skip
// replays — the same substitution the selective stepper makes from
// outside, made here so the blind-stepping saturation fallback gets it
// too.
func (c *Controller) Tick(now int64) {
	if c.NextEvent(now) > now {
		c.Skip(now, now+1)
		return
	}
	c.evValid = false
	c.completeReads(now)
	c.updateWriteMode()
	if c.wmode {
		c.stats.WriteModeCycles++
	}

	var cmd dram.Cmd
	req, autopre, ok := c.chooseDemandCached(now, &cmd)
	if c.policy.Tick(now, ok) {
		return // policy consumed the command slot
	}
	if ok {
		c.issueDemand(cmd, req, autopre, now)
	}
}

// NextEvent returns the earliest cycle >= now at which Tick could do
// anything beyond the linear accounting Skip replays: complete an in-flight
// read, flip writeback mode, run a demand scan (fresh, or a cached miss
// whose earliest-ready bound or blocked epoch has expired), or give the
// refresh policy a non-idle slot. It is a lower bound in the NextEvent
// contract of the clock-skipping engine (see sim): the caller may only skip
// the window if every other component is also quiescent, which guarantees
// no enqueue arrives and no policy state moves in between.
func (c *Controller) NextEvent(now int64) int64 {
	if c.evValid {
		return c.evCached
	}
	c.evCached = c.nextEvent(now)
	c.evValid = true
	return c.evCached
}

func (c *Controller) nextEvent(now int64) int64 {
	if c.inflightMin <= now {
		return now
	}
	ev := c.inflightMin
	if (!c.wmode && c.writeIx.n >= c.cfg.WriteHigh) || (c.wmode && c.writeIx.n <= c.cfg.WriteLow) {
		return now // a writeback-mode flip is pending
	}
	if c.readIx.n != 0 || c.writeIx.n != 0 {
		if !c.missValid || c.blockedEpoch != c.missEpoch || c.missNextTry <= now {
			return now // a demand scan must run this cycle
		}
		if c.missNextTry < ev {
			ev = c.missNextTry
		}
	}
	if d := c.policy.NextDeadline(now); d < ev {
		ev = d
	}
	if ev < now {
		ev = now
	}
	return ev
}

// Skip replays the per-cycle accounting of the Ticks elided for cycles
// [from, to): the writeback-mode cycle counter, the opportunistic-drain
// counter the cached demand miss replicates, and the policy's own skip
// accounting. NextEvent(from) must have returned at least to.
func (c *Controller) Skip(from, to int64) {
	if c.wmode {
		c.stats.WriteModeCycles += to - from
	}
	if !c.wmode && c.readIx.n == 0 && c.writeIx.n > 0 {
		c.stats.OpportunisticDrain += to - from
	}
	c.policy.Skip(from, to)
}

func (c *Controller) addInflight(req *Request) {
	req.stamp = c.inflightStamp
	c.inflightStamp++
	c.inflightRd = append(c.inflightRd, req)
	if req.Done < c.inflightMin {
		c.inflightMin = req.Done
	}
}

func (c *Controller) addInflightFwd(req *Request) {
	req.stamp = c.inflightStamp
	c.inflightStamp++
	c.inflightFwd = append(c.inflightFwd, req)
	if req.Done < c.inflightMin {
		c.inflightMin = req.Done
	}
}

func (c *Controller) completeReads(now int64) {
	if now < c.inflightMin {
		return // nothing can have returned yet (MaxInt64 when empty)
	}
	for {
		var r *Request
		rdDue := c.rdHead < len(c.inflightRd) && c.inflightRd[c.rdHead].Done <= now
		fwdDue := c.fwdHead < len(c.inflightFwd) && c.inflightFwd[c.fwdHead].Done <= now
		switch {
		case rdDue && (!fwdDue || c.inflightRd[c.rdHead].stamp < c.inflightFwd[c.fwdHead].stamp):
			r = c.inflightRd[c.rdHead]
			c.inflightRd, c.rdHead = fifo.PopFront(c.inflightRd, c.rdHead)
		case fwdDue:
			r = c.inflightFwd[c.fwdHead]
			c.inflightFwd, c.fwdHead = fifo.PopFront(c.inflightFwd, c.fwdHead)
		default:
			c.inflightMin = math.MaxInt64
			if c.rdHead < len(c.inflightRd) {
				c.inflightMin = c.inflightRd[c.rdHead].Done
			}
			if c.fwdHead < len(c.inflightFwd) && c.inflightFwd[c.fwdHead].Done < c.inflightMin {
				c.inflightMin = c.inflightFwd[c.fwdHead].Done
			}
			return
		}
		c.stats.ReadsServed++
		c.stats.ReadLatencySum += r.Done - r.Arrive
		if r.OnComplete != nil {
			r.OnComplete(now)
		}
		c.recycle(r)
	}
}

func (c *Controller) updateWriteMode() {
	if !c.wmode && c.writeIx.n >= c.cfg.WriteHigh {
		c.wmode = true
		c.missValid = false
		c.stats.WriteModeEntries++
	}
	if c.wmode && c.writeIx.n <= c.cfg.WriteLow {
		c.wmode = false
		c.missValid = false
	}
}

// refreshBlocked rebuilds the blocked snapshot if the policy's epoch moved.
// Called once per demand scan, so the per-bank probes stay interface-free.
func (c *Controller) refreshBlocked() {
	ep := c.blockedEpoch
	if c.blockedInit && ep == c.blockedSeen {
		return
	}
	if c.blockedMask == nil {
		c.blockedMask = make([]bool, c.geom.Ranks*c.geom.Banks)
	}
	c.blockedAny = false
	for r := 0; r < c.geom.Ranks; r++ {
		for b := 0; b < c.geom.Banks; b++ {
			v := c.policy.Blocked(r, b)
			c.blockedMask[r*c.geom.Banks+b] = v
			c.blockedAny = c.blockedAny || v
		}
	}
	c.blockedSeen = ep
	c.blockedInit = true
}

// chooseDemandCached reuses the previous cycle's failed demand search when
// nothing that could change its outcome has happened: no queue or device
// mutation (tracked via missValid), no write-mode flip, no policy block
// change (blockedEpoch), and the earliest-ready bound still in the future.
func (c *Controller) chooseDemandCached(now int64, cmd *dram.Cmd) (*Request, bool, bool) {
	if c.readIx.n == 0 && c.writeIx.n == 0 {
		return nil, false, false
	}
	if c.missValid && now < c.missNextTry && c.blockedEpoch == c.missEpoch {
		// Replicate the one observable side effect of a fruitless scan: the
		// opportunistic-drain counter ticks whenever write drain is
		// considered outside writeback mode.
		if !c.wmode && c.readIx.n == 0 && c.writeIx.n > 0 {
			c.stats.OpportunisticDrain++
		}
		return nil, false, false
	}
	req, autopre, ok, nextTry := c.chooseDemand(now, cmd)
	if ok {
		c.missValid = false
	} else {
		c.missValid = true
		c.missNextTry = nextTry
		c.missEpoch = c.blockedEpoch
	}
	return req, autopre, ok
}

// chooseDemand picks the best demand command under FR-FCFS: first-ready
// column command to an open row (oldest first), then the oldest activation,
// then a conflict precharge. It does not mutate scheduling state. When no
// command is issuable it also returns the earliest cycle any rejected
// candidate could become issuable on its own (device timing expiring), which
// backs the cross-cycle miss cache.
func (c *Controller) chooseDemand(now int64, cmd *dram.Cmd) (*Request, bool, bool, int64) {
	ix := &c.readIx
	isWrite := false
	if c.wmode || c.readIx.n == 0 {
		// Writeback mode, or opportunistic write drain while no reads are
		// waiting (otherwise sub-watermark writes would sit forever).
		ix = &c.writeIx
		isWrite = true
		if !c.wmode && ix.n > 0 {
			c.stats.OpportunisticDrain++
		}
	}
	nextTry := int64(math.MaxInt64)
	if ix.n == 0 {
		return nil, false, false, nextTry
	}
	c.refreshBlocked()

	// One walk over the active buckets. The candidate registers classify
	// each bank into exactly one FR-FCFS class — open-row hit (column
	// candidate, bucket.hit), precharged (activation candidate, oldest
	// queued), or open with no hits (conflict precharge) — and the walk
	// tracks the oldest candidate per class. Column beats activation beats
	// precharge, so once a higher class has a candidate the lower classes'
	// bookkeeping is skipped outright: it could never change the outcome,
	// and the selection stays identical to the seed's three sequential
	// scans. Device-global gates (bus occupancy and turnaround for columns,
	// rank tRRD/tFAW for activations) are hoisted out of the loop, leaving
	// one or two slab reads per bank. EarliestColumn/EarliestPRE are exact
	// bounds; EarliestACT is a lower bound only — with SARP, ACT legality
	// depends on the target row's subarray — so activation banks passing
	// the gate still go through CanIssue per row.
	colGlobal, colBank := c.dev.EarliestColumnSplit(isWrite)
	colOpen := colGlobal <= now
	actBank := c.dev.EarliestACTBank()
	c.scanTok++
	var bestCol, bestAct, bestPre *Request
	colBankMin := int64(math.MaxInt64) // tightest bank-local column bound while the global gate holds
	bestBank := -1
	for _, bi := range ix.active {
		if c.blockedAny && c.blockedMask[bi] {
			continue
		}
		if r := ix.hit[bi]; r != nil { // column class
			if !colOpen {
				// No bank can receive a column command this cycle; the
				// earliest any hit could is the global gate clamped by the
				// tightest bank-local bound (max distributes over the min).
				if e := colBank[bi]; e < colBankMin {
					colBankMin = e
				}
				continue
			}
			if bestCol != nil && r.seq > bestCol.seq {
				continue
			}
			if e := colBank[bi]; e > now {
				if e < nextTry {
					nextTry = e
				}
				continue
			}
			bestCol = r
			continue
		}
		if bestCol != nil {
			continue // a column candidate always wins; skip lower classes
		}
		if ix.openRow[bi] == noOpenRow { // activation class
			if bestAct != nil && ix.oldSeq[bi] > bestAct.seq {
				continue
			}
			bkt := &ix.buckets[bi]
			rank := bkt.rank
			if c.actTok[rank] != c.scanTok {
				c.actGlobal[rank] = c.dev.EarliestACTRank(rank)
				c.actTok[rank] = c.scanTok
			}
			if e := max(actBank[bi], c.actGlobal[rank]); e > now {
				if e < nextTry {
					nextTry = e
				}
				continue
			}
			if now >= c.dev.RefreshBusyUntil(rank) {
				// No refresh anywhere in the rank: everything CanIssue would
				// re-check is already covered — the bank is precharged (open
				// -row mirror), its tRC/tRP and the rank's tRRD plus the base
				// tFAW window passed (the hoisted gates), and the throttled
				// timings and subarray blocking require an in-progress
				// refresh — so the bank's oldest request activates without a
				// per-row legality probe.
				bestAct = bkt.reqs[0]
				continue
			}
			found := false
			for _, r := range bkt.reqs {
				if bestAct != nil && r.seq > bestAct.seq {
					found = true // an older candidate already won; bank stays live
					break
				}
				actCmd := dram.Cmd{Kind: dram.CmdACT, Rank: rank, Bank: bkt.bank, Row: r.Addr.Row}
				if c.dev.CanIssue(actCmd, now) {
					bestAct = r
					found = true
					break
				}
			}
			if !found && now+1 < nextTry {
				// Thresholds passed but every queued row is held off by an
				// in-progress refresh (SARP subarray collision or throttled
				// tFAW); re-evaluate next cycle.
				nextTry = now + 1
			}
			continue
		}
		// Conflict-precharge class: an open row nobody queued wants; the
		// bank's oldest request stands in for FR-FCFS age ordering.
		if bestAct != nil {
			continue // an activation candidate always beats a precharge
		}
		if bestPre != nil && ix.oldSeq[bi] > bestPre.seq {
			continue
		}
		bkt := &ix.buckets[bi]
		if e := c.dev.EarliestPRE(bkt.rank, bkt.bank); e > now {
			if e < nextTry {
				nextTry = e
			}
			continue
		}
		bestPre = bkt.reqs[0]
		bestBank = bi
	}

	switch {
	case bestCol != nil:
		autopre := !c.cfg.OpenRow && ix.hitN[bestCol.Addr.Rank*c.geom.Banks+bestCol.Addr.Bank] < 2
		kind := colKind(bestCol.IsWrite, autopre)
		*cmd = dram.Cmd{Kind: kind, Rank: bestCol.Addr.Rank, Bank: bestCol.Addr.Bank, Row: bestCol.Addr.Row, Col: bestCol.Addr.Col}
		return bestCol, autopre, true, 0
	case bestAct != nil:
		*cmd = dram.Cmd{Kind: dram.CmdACT, Rank: bestAct.Addr.Rank, Bank: bestAct.Addr.Bank, Row: bestAct.Addr.Row}
		return bestAct, false, true, 0
	case bestBank >= 0:
		bkt := &ix.buckets[bestBank]
		*cmd = dram.Cmd{Kind: dram.CmdPRE, Rank: bkt.rank, Bank: bkt.bank}
		return nil, false, true, 0
	}
	if colBankMin != math.MaxInt64 {
		if e := max(colGlobal, colBankMin); e < nextTry {
			nextTry = e
		}
	}
	return nil, false, false, nextTry
}

func colKind(write, autopre bool) dram.CmdKind {
	switch {
	case write && autopre:
		return dram.CmdWRA
	case write:
		return dram.CmdWR
	case autopre:
		return dram.CmdRDA
	default:
		return dram.CmdRD
	}
}

func (c *Controller) issueDemand(cmd dram.Cmd, req *Request, autopre bool, now int64) {
	c.dev.Issue(cmd, now)
	c.noteIssue(cmd)
	c.missValid = false
	c.stats.DemandSlots++
	if !cmd.Kind.IsColumn() {
		return // ACT/PRE keep the request queued
	}
	c.removeRequest(req)
	c.pending.add(req, -1)
	if req.IsWrite {
		req.Done = c.dev.WriteDataAt(now)
		c.stats.WritesServed++
		c.stats.WriteLatencySum += req.Done - req.Arrive
		c.recycle(req)
		return
	}
	req.Done = c.dev.ReadDataAt(now)
	c.addInflight(req)
}

func (c *Controller) removeRequest(req *Request) {
	if req.IsWrite {
		c.writeIx.remove(req)
		delete(c.writeAddrs, packAddr(req.Addr))
	} else {
		c.readIx.remove(req)
	}
	c.missValid = false
	c.demandEpoch++
}

// Drained reports whether all queues and in-flight reads are empty.
func (c *Controller) Drained() bool {
	return c.readIx.n == 0 && c.writeIx.n == 0 &&
		c.rdHead == len(c.inflightRd) && c.fwdHead == len(c.inflightFwd)
}
