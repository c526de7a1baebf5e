package cpu

import (
	"fmt"

	"dsarp/internal/snap"
)

// AppendState writes the core's mutable state: progress counters, the
// in-flight load entries in program order, the buffered next access, and
// the trace generator's stream position. A lazy core catches up to its
// horizon first, so the bytes are those of an eagerly accounted core. The
// NextEvent memo, the skip trajectory and the lazy clock are derived state
// and deliberately omitted — LoadState drops the first two and sets the
// clock to the horizon, and the next NextEvent recomputes identical
// answers from the same fields, so resumed runs step exactly like cold
// ones.
func (c *Core) AppendState(w *snap.Writer) {
	c.catchUp()
	w.I64(c.issued)
	w.I64(c.retired)
	w.I64(c.cpuCycles)
	w.I64(c.stats.Loads)
	w.I64(c.stats.Stores)
	w.I64(c.stats.MemStallBeat)
	w.Bool(c.haveNext)
	w.Int(c.next.Gap)
	w.U64(c.next.Addr)
	w.Bool(c.next.Write)
	w.I64(c.nextPos)
	live := c.loads[c.loadHead:]
	w.Int(len(live))
	for _, ld := range live {
		w.I64(ld.pos)
		w.Bool(ld.done)
	}
	gen, ok := c.gen.(snap.Codec)
	if !ok {
		panic(fmt.Sprintf("cpu: generator %T does not serialize", c.gen))
	}
	gen.AppendState(w)
}

// LoadState restores the state written by AppendState onto a freshly
// constructed core with the same configuration and generator. Load
// completion callbacks are rebuilt here; the cache slice re-links its
// pending deliveries to them via CompletionFor. A lazy core's owner sets
// the horizon to the snapshot's cycle before calling it: the restored
// state counts as accounted up to there.
func (c *Core) LoadState(r *snap.Reader) error {
	c.issued = r.I64()
	c.retired = r.I64()
	c.cpuCycles = r.I64()
	c.stats.Loads = r.I64()
	c.stats.Stores = r.I64()
	c.stats.MemStallBeat = r.I64()
	c.haveNext = r.Bool()
	c.next.Gap = r.Int()
	c.next.Addr = r.U64()
	c.next.Write = r.Bool()
	c.nextPos = r.I64()
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	// The list holds completed-but-unretired loads too (retirement is in
	// order), so it is bounded by the instruction window, not the MSHRs.
	if n < 0 || n > c.cfg.Window {
		return fmt.Errorf("cpu: snapshot has %d in-flight loads, window is %d", n, c.cfg.Window)
	}
	c.loads = c.loads[:0]
	c.loadHead = 0
	c.freeLoads = nil
	c.outstanding = 0
	for i := 0; i < n; i++ {
		ld := &loadEntry{pos: r.I64(), done: r.Bool()}
		ld.onDone = func(int64) { c.complete(ld) }
		if !ld.done {
			c.outstanding++
		}
		c.loads = append(c.loads, ld)
	}
	if c.outstanding > c.maxOut {
		return fmt.Errorf("cpu: snapshot has %d outstanding misses, core allows %d", c.outstanding, c.maxOut)
	}
	c.evValid = false
	if c.horizon != nil {
		c.at = *c.horizon
	}
	gen, ok := c.gen.(snap.Codec)
	if !ok {
		return fmt.Errorf("cpu: generator %T does not serialize", c.gen)
	}
	if err := gen.LoadState(r); err != nil {
		return err
	}
	return r.Err()
}

// CompletionFor returns the completion callback of the in-flight load
// tagged with the given instruction position, for re-linking a restored
// cache slice's pending deliveries. It is an error to ask for a load that
// is not in flight: a snapshot that references one is corrupt.
func (c *Core) CompletionFor(tag uint64) (func(now int64), error) {
	for _, ld := range c.loads[c.loadHead:] {
		if uint64(ld.pos) == tag && !ld.done {
			return ld.onDone, nil
		}
	}
	return nil, fmt.Errorf("cpu: core %d has no in-flight load at position %d", c.id, tag)
}
