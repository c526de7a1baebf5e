package sched

// Differential fuzz for the incremental FR-FCFS candidate registers: a
// naive flat-rescan reference implementation (kept here, in the test) picks
// the demand command from first principles every cycle, and the controller's
// register-driven chooseDemand must agree request-for-request. The driver
// exercises every register invalidation source: enqueue/dequeue, row opens
// and closes (demand ACT/PRE plus auto-precharge), refresh-policy drain
// precharges and refreshes through IssueCmd, write-mode flips, forwarded
// reads and merged writes, and randomized rank/bank blocking.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dsarp/internal/dram"
	"dsarp/internal/snap"
	"dsarp/internal/timing"
)

// fuzzPolicy is a deliberately erratic RefreshPolicy: it flips random
// rank/bank blocks and issues refreshes and drain precharges at random, so
// the controller sees every kind of externally-caused state change.
type fuzzPolicy struct {
	c       *Controller
	rng     *rand.Rand
	ranks   int
	banks   int
	rankBlk []bool
	bankBlk []bool
}

func newFuzzPolicy(c *Controller, seed int64) *fuzzPolicy {
	g := c.Dev().Geometry()
	return &fuzzPolicy{
		c:       c,
		rng:     rand.New(rand.NewSource(seed)),
		ranks:   g.Ranks,
		banks:   g.Banks,
		rankBlk: make([]bool, g.Ranks),
		bankBlk: make([]bool, g.Ranks*g.Banks),
	}
}

func (p *fuzzPolicy) Name() string                 { return "fuzz" }
func (p *fuzzPolicy) Blocked(r, b int) bool        { return p.rankBlk[r] || p.bankBlk[r*p.banks+b] }
func (p *fuzzPolicy) NextDeadline(now int64) int64 { return now }
func (p *fuzzPolicy) Skip(from, to int64)          {}
func (p *fuzzPolicy) AppendState(*snap.Writer)     {}
func (p *fuzzPolicy) LoadState(*snap.Reader) error { return nil }

func (p *fuzzPolicy) Tick(now int64, demandReady bool) bool {
	// Randomly toggle blocking state (~1% of cycles).
	if p.rng.Intn(100) == 0 {
		if p.rng.Intn(4) == 0 {
			r := p.rng.Intn(p.ranks)
			p.rankBlk[r] = !p.rankBlk[r]
		} else {
			i := p.rng.Intn(len(p.bankBlk))
			p.bankBlk[i] = !p.bankBlk[i]
		}
		p.c.NoteBlockedChanged()
	}
	// Randomly claim the slot for a refresh or a drain precharge (~2%).
	if p.rng.Intn(50) != 0 {
		return false
	}
	dev := p.c.Dev()
	r := p.rng.Intn(p.ranks)
	switch p.rng.Intn(3) {
	case 0:
		cmd := dram.Cmd{Kind: dram.CmdREFab, Rank: r}
		if dev.CanIssue(cmd, now) {
			p.c.IssueCmd(cmd, now)
			return true
		}
	case 1:
		cmd := dram.Cmd{Kind: dram.CmdREFpb, Rank: r, Bank: p.rng.Intn(p.banks)}
		if dev.CanIssue(cmd, now) {
			p.c.IssueCmd(cmd, now)
			return true
		}
	default:
		cmd := dram.Cmd{Kind: dram.CmdPRE, Rank: r, Bank: p.rng.Intn(p.banks)}
		if dev.CanIssue(cmd, now) {
			p.c.IssueCmd(cmd, now)
			return true
		}
	}
	return false
}

// refChoice is the reference scheduler's decision.
type refChoice struct {
	ok  bool
	cmd dram.Cmd
	seq int64 // admission order of the chosen request; -1 for conflict PRE
}

// referenceChooseDemand re-derives the FR-FCFS decision from first
// principles: flat per-bank request lists rebuilt from scratch, three
// sequential passes (column hit, activation, conflict precharge), age
// ordering by admission seq, device legality via the exact Earliest*/
// CanIssue queries, blocking via the policy's live answers.
func referenceChooseDemand(c *Controller, now int64) refChoice {
	ix := &c.readIx
	isWrite := false
	if c.wmode || c.readIx.n == 0 {
		ix = &c.writeIx
		isWrite = true
	}
	if ix.n == 0 {
		return refChoice{}
	}
	g := c.geom

	blocked := c.policy.Blocked
	reqsOf := func(r, b int) []*Request { return ix.bucketOf(r, b).reqs }
	rowCount := func(r, b, row int) int {
		n := 0
		for _, q := range reqsOf(r, b) {
			if q.Addr.Row == row {
				n++
			}
		}
		return n
	}

	// Pass 1: oldest request targeting its bank's open row, on a bank whose
	// column timing allows the command now.
	var best *Request
	for r := 0; r < g.Ranks; r++ {
		for b := 0; b < g.Banks; b++ {
			open := c.dev.OpenRow(r, b)
			if open == dram.NoRow || blocked(r, b) || c.dev.EarliestColumn(r, b, isWrite) > now {
				continue
			}
			for _, q := range reqsOf(r, b) {
				if q.Addr.Row == open && (best == nil || q.seq < best.seq) {
					best = q
					break // requests are in seq order: first hit is the bank's oldest
				}
			}
		}
	}
	if best != nil {
		autopre := !c.cfg.OpenRow && rowCount(best.Addr.Rank, best.Addr.Bank, best.Addr.Row) < 2
		return refChoice{ok: true, seq: best.seq, cmd: dram.Cmd{
			Kind: colKind(best.IsWrite, autopre),
			Rank: best.Addr.Rank, Bank: best.Addr.Bank, Row: best.Addr.Row, Col: best.Addr.Col}}
	}

	// Pass 2: per precharged bank, the oldest request whose row's ACT is
	// legal; the youngest-bank pruning of the production scan cannot change
	// which request wins, so the reference simply takes the global minimum.
	for r := 0; r < g.Ranks; r++ {
		for b := 0; b < g.Banks; b++ {
			if c.dev.OpenRow(r, b) != dram.NoRow || blocked(r, b) || c.dev.EarliestACT(r, b) > now {
				continue
			}
			for _, q := range reqsOf(r, b) {
				if best != nil && q.seq > best.seq {
					break
				}
				if c.dev.CanIssue(dram.Cmd{Kind: dram.CmdACT, Rank: r, Bank: b, Row: q.Addr.Row}, now) {
					best = q
					break
				}
			}
		}
	}
	if best != nil {
		return refChoice{ok: true, seq: best.seq, cmd: dram.Cmd{
			Kind: dram.CmdACT, Rank: best.Addr.Rank, Bank: best.Addr.Bank, Row: best.Addr.Row}}
	}

	// Pass 3: conflict precharge — the bank holding the oldest request among
	// banks whose open row nobody queued wants.
	bestBank := -1
	var bestSeq int64 = math.MaxInt64
	for r := 0; r < g.Ranks; r++ {
		for b := 0; b < g.Banks; b++ {
			open := c.dev.OpenRow(r, b)
			reqs := reqsOf(r, b)
			if open == dram.NoRow || len(reqs) == 0 || blocked(r, b) {
				continue
			}
			if rowCount(r, b, open) > 0 || c.dev.EarliestPRE(r, b) > now {
				continue
			}
			if reqs[0].seq < bestSeq {
				bestSeq = reqs[0].seq
				bestBank = r*g.Banks + b
			}
		}
	}
	if bestBank >= 0 {
		return refChoice{ok: true, seq: -1, cmd: dram.Cmd{
			Kind: dram.CmdPRE, Rank: bestBank / g.Banks, Bank: bestBank % g.Banks}}
	}
	return refChoice{}
}

// checkRegisters asserts the incremental candidate registers against a
// naive recount of the bucket contents.
func checkRegisters(t *testing.T, c *Controller, now int64) {
	t.Helper()
	for name, ix := range map[string]*queueIndex{"read": &c.readIx, "write": &c.writeIx} {
		for r := 0; r < c.geom.Ranks; r++ {
			for b := 0; b < c.geom.Banks; b++ {
				bi := r*c.geom.Banks + b
				open := c.dev.OpenRow(r, b)
				if ix.openRow[bi] != open {
					t.Fatalf("cycle %d: %s openRow mirror r%d/b%d = %d, device says %d",
						now, name, r, b, ix.openRow[bi], open)
				}
				var wantHit *Request
				wantN := int32(0)
				if open != dram.NoRow {
					for _, q := range ix.bucketOf(r, b).reqs {
						if q.Addr.Row == open {
							if wantHit == nil {
								wantHit = q
							}
							wantN++
						}
					}
				}
				if ix.hit[bi] != wantHit || ix.hitN[bi] != wantN {
					t.Fatalf("cycle %d: %s candidate register r%d/b%d = (%v, %d), recount says (%v, %d)",
						now, name, r, b, ix.hit[bi], ix.hitN[bi], wantHit, wantN)
				}
			}
		}
	}
}

// TestFuzzCandidateRegistersMatchFlatRescan drives randomized traffic,
// refreshes, drains, and blocking through controllers over SARP and
// non-SARP devices (closed- and open-row policies), asserting cycle for
// cycle that the register-driven demand scan picks exactly the command the
// flat-rescan reference picks, and that the registers equal a naive
// recount.
func TestFuzzCandidateRegistersMatchFlatRescan(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config fuzz")
	}
	g := dram.Geometry{Ranks: 2, Banks: 4, SubarraysPerBank: 4, RowsPerBank: 32,
		ColumnsPerRow: 4, RowsPerRef: 2}
	const cycles = 20_000
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		sarp := seed%2 == 0
		openRow := seed%3 == 0
		name := fmt.Sprintf("seed%d_sarp%v_openrow%v", seed, sarp, openRow)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tp := timing.DDR3(timing.Config{Density: timing.Gb32, Mode: timing.RefPB})
			dev := dram.MustNew(g, tp, dram.Options{SARP: sarp, Check: true})
			cfg := DefaultConfig()
			cfg.ReadQueueCap, cfg.WriteQueueCap = 16, 16
			cfg.WriteHigh, cfg.WriteLow = 12, 6
			cfg.OpenRow = openRow
			c := NewController(dev, cfg)
			c.SetPolicy(newFuzzPolicy(c, seed*77))

			rng := rand.New(rand.NewSource(seed))
			var cmd dram.Cmd
			for now := int64(0); now < cycles; now++ {
				if rng.Intn(3) == 0 {
					n := 1 + rng.Intn(3)
					for i := 0; i < n; i++ {
						a := dram.Addr{
							Rank: rng.Intn(g.Ranks),
							Bank: rng.Intn(g.Banks),
							Row:  rng.Intn(10), // tight row set: hits, conflicts, merges
							Col:  rng.Intn(g.ColumnsPerRow),
						}
						req := c.NewRequest()
						req.Addr = a
						if rng.Intn(3) == 0 {
							req.IsWrite = true
							c.EnqueueWrite(req, now)
						} else {
							c.EnqueueRead(req, now)
						}
					}
				}
				checkRegisters(t, c, now)

				// The production scan is pure (modulo idempotent snapshot
				// refreshes and a drain counter), so probing it before the
				// real Tick observes exactly the decision Tick will act on.
				want := referenceChooseDemand(c, now)
				req, _, ok := c.chooseDemandCached(now, &cmd)
				if ok != want.ok {
					t.Fatalf("cycle %d: scan found=%v, reference found=%v (ref %+v)", now, ok, want.ok, want)
				}
				if ok {
					gotSeq := int64(-1)
					if req != nil {
						gotSeq = req.seq
					}
					if cmd != want.cmd || gotSeq != want.seq {
						t.Fatalf("cycle %d: scan chose %v (seq %d), reference chose %v (seq %d)",
							now, cmd, gotSeq, want.cmd, want.seq)
					}
				}
				c.Tick(now)
			}
			if err := dev.Checker().Err(); err != nil {
				t.Fatalf("protocol violations: %v", err)
			}
		})
	}
}
