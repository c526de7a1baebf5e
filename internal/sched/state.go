package sched

import (
	"fmt"
	"math"

	"dsarp/internal/snap"
	"dsarp/internal/stats"
)

// AppendState writes the controller's mutable state: admission counters,
// write-mode flag, both request queues (bucket by bucket, in active-list
// order, requests in arrival order), the two in-flight FIFOs, the cached
// demand-search miss, the blocked/demand/zero epochs, and statistics.
//
// The queue indexes' candidate registers (hit/hitN/openRow/oldSeq/rows),
// the bankPending occupancy slabs, and the write-address set are all
// derived from the queued requests plus the device's open rows, so
// LoadState rebuilds them by replaying add() — but the miss cache is NOT
// derived: missNextTry is tightened by noteArrival on every admission,
// and no rescan can recover it, so dropping it would make a restored
// controller scan on cycles the cold run provably skipped and fork the
// engines' SteppedCycles accounting.
func (c *Controller) AppendState(w *snap.Writer) {
	w.I64(c.seq)
	w.Bool(c.wmode)
	w.I64(c.inflightStamp)
	w.U64(c.blockedEpoch)
	w.U64(c.demandEpoch)
	w.U64(c.pending.zeroEpoch)
	w.Bool(c.missValid)
	w.I64(c.missNextTry)
	w.U64(c.missEpoch)
	for _, p := range stats.Counters(&c.stats) {
		w.I64(*p)
	}
	c.appendQueue(w, &c.readIx)
	c.appendQueue(w, &c.writeIx)
	appendReqList(w, c.inflightRd[c.rdHead:])
	appendReqList(w, c.inflightFwd[c.fwdHead:])
}

// appendQueue walks the buckets in active-list order so a replayed
// rebuild reproduces the active list exactly (its order is behaviorally
// arbitrary, but preserving it keeps restored state literally identical).
func (c *Controller) appendQueue(w *snap.Writer, ix *queueIndex) {
	w.Int(len(ix.active))
	for _, bi := range ix.active {
		w.Int(bi)
		appendReqList(w, ix.buckets[bi].reqs)
	}
}

func appendReqList(w *snap.Writer, reqs []*Request) {
	w.Int(len(reqs))
	for _, req := range reqs {
		w.I64(req.ID)
		w.Int(req.Core)
		w.Bool(req.IsWrite)
		w.Int(req.Addr.Rank)
		w.Int(req.Addr.Bank)
		w.Int(req.Addr.Row)
		w.Int(req.Addr.Col)
		w.I64(req.Arrive)
		w.I64(req.Done)
		w.I64(req.seq)
		w.I64(req.stamp)
		w.U64(req.Tag)
		w.Bool(req.OnComplete != nil)
	}
}

// Resolver maps a read request's (core, tag) back to its completion
// callback; sim provides one closing over the restored cache slices.
type Resolver func(core int, tag uint64) (func(now int64), error)

func loadReqList(r *snap.Reader, resolve Resolver) ([]*Request, error) {
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	reqs := make([]*Request, 0, n)
	for i := 0; i < n; i++ {
		req := &Request{}
		req.ID = r.I64()
		req.Core = r.Int()
		req.IsWrite = r.Bool()
		req.Addr.Rank = r.Int()
		req.Addr.Bank = r.Int()
		req.Addr.Row = r.Int()
		req.Addr.Col = r.Int()
		req.Arrive = r.I64()
		req.Done = r.I64()
		req.seq = r.I64()
		req.stamp = r.I64()
		req.Tag = r.U64()
		hasCB := r.Bool()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if hasCB {
			fn, err := resolve(req.Core, req.Tag)
			if err != nil {
				return nil, fmt.Errorf("sched: request %d: %w", req.ID, err)
			}
			req.OnComplete = fn
		}
		reqs = append(reqs, req)
	}
	return reqs, nil
}

// LoadState restores the state written by AppendState onto a freshly
// built controller over an already-restored device (the queue rebuild
// reads the device's open rows). The attached policy's state is restored
// separately, after the controller. resolve re-links read completion
// callbacks; the owning cores and slices must be restored first.
func (c *Controller) LoadState(r *snap.Reader, resolve Resolver) error {
	c.seq = r.I64()
	c.wmode = r.Bool()
	c.inflightStamp = r.I64()
	blockedEpoch := r.U64()
	demandEpoch := r.U64()
	zeroEpoch := r.U64()
	c.missValid = r.Bool()
	c.missNextTry = r.I64()
	c.missEpoch = r.U64()
	for _, p := range stats.Counters(&c.stats) {
		*p = r.I64()
	}

	// Reset the queues and every structure derived from them, then replay
	// admissions. The open-row mirrors must be seeded from the device
	// before any add(): add consults them to maintain the hit registers.
	c.readIx = newQueueIndex(c.geom.Ranks, c.geom.Banks)
	c.writeIx = newQueueIndex(c.geom.Ranks, c.geom.Banks)
	for bi := range c.readIx.openRow {
		row := c.dev.OpenRow(bi/c.geom.Banks, bi%c.geom.Banks)
		c.readIx.openRow[bi] = row
		c.writeIx.openRow[bi] = row
	}
	c.writeAddrs = make(map[uint64]struct{}, c.cfg.WriteQueueCap)
	// Zero the occupancy slabs in place: policies cache the demand slab
	// pointer at construction, so the backing arrays must survive.
	for i := range c.pending.demand {
		c.pending.demand[i] = 0
	}
	for i := range c.pending.rank {
		c.pending.rank[i] = 0
	}
	if err := c.loadQueue(r, &c.readIx, resolve); err != nil {
		return err
	}
	if err := c.loadQueue(r, &c.writeIx, resolve); err != nil {
		return err
	}
	var err error
	c.inflightRd, err = loadReqList(r, resolve)
	if err != nil {
		return err
	}
	c.inflightFwd, err = loadReqList(r, resolve)
	if err != nil {
		return err
	}
	c.rdHead, c.fwdHead = 0, 0
	c.inflightMin = math.MaxInt64
	if len(c.inflightRd) > 0 {
		c.inflightMin = c.inflightRd[0].Done
	}
	if len(c.inflightFwd) > 0 && c.inflightFwd[0].Done < c.inflightMin {
		c.inflightMin = c.inflightFwd[0].Done
	}

	// The replay bumped the derived epochs; pin them back to the cold
	// run's exact values so policy caches keyed on them stay coherent.
	c.blockedEpoch = blockedEpoch
	c.demandEpoch = demandEpoch
	c.pending.zeroEpoch = zeroEpoch
	c.blockedInit = false
	c.evValid = false
	c.reqFree = nil
	return r.Err()
}

func (c *Controller) loadQueue(r *snap.Reader, ix *queueIndex, resolve Resolver) error {
	nb := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	for i := 0; i < nb; i++ {
		bi := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if bi < 0 || bi >= len(ix.buckets) {
			return fmt.Errorf("sched: snapshot bucket %d out of range", bi)
		}
		reqs, err := loadReqList(r, resolve)
		if err != nil {
			return err
		}
		for _, req := range reqs {
			ix.add(req)
			c.pending.add(req, 1)
			if req.IsWrite {
				c.writeAddrs[packAddr(req.Addr)] = struct{}{}
			}
		}
	}
	return r.Err()
}
