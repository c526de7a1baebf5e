package cache

import (
	"fmt"
	"math"

	"dsarp/internal/snap"
	"dsarp/internal/stats"
)

// AppendState writes the slice's mutable state: the tag store, LRU
// clocks, MSHR chains (order preserved — fill unlinks mid-chain), pending
// writebacks, pending hit deliveries, and counters. Callbacks do not
// serialize: waiters and hit deliveries carry the requester's tag and are
// re-linked by LoadState; each MSHR entry's fill callback is rebuilt
// fresh. The free list and the nextHitAt memo are derived state and
// omitted.
//
// The tag store is written sparsely: only the sets that hold a valid
// line, each as set index, MRU way and valid-line count, then tag, dirty
// bit and LRU stamp per valid line. A set's valid lines are a prefix of
// its ways (see the package comment) and every other way is the zero way
// a fresh slice already holds, so the snapshot grows with the touched
// footprint rather than the slice size. Pending fills are written as one
// entry count, then the entries in set order and, within a set, in chain
// order; each entry's set follows from its line address.
func (s *Slice) AppendState(w *snap.Writer) {
	w.I64(s.tick)
	for _, p := range stats.Counters(&s.stats) {
		w.I64(*p)
	}
	occupied := 0
	for _, n := range s.valid {
		if n > 0 {
			occupied++
		}
	}
	w.Int(occupied)
	for si, n := range s.valid {
		if n == 0 {
			continue
		}
		w.Int(si)
		w.Int(int(s.mru[si]))
		w.Int(int(n))
		for way := si * s.ways; way < si*s.ways+int(n); way++ {
			w.U64(s.tags[way])
			w.Bool(s.dirty[way])
			w.I64(s.used[way])
		}
	}
	wbs := s.pendingWB[s.wbHead:]
	w.Int(len(wbs))
	for _, a := range wbs {
		w.U64(a)
	}
	hits := s.hits[s.hitHead:]
	w.Int(len(hits))
	for _, h := range hits {
		w.I64(h.at)
		w.U64(h.tag)
	}
	pending := 0
	for _, head := range s.mshr {
		for e := head; e != nil; e = e.next {
			pending++
		}
	}
	w.Int(pending)
	for _, head := range s.mshr {
		for e := head; e != nil; e = e.next {
			w.U64(e.lineAddr)
			w.Bool(e.dirty)
			w.Int(len(e.waiters))
			for _, wt := range e.waiters {
				w.U64(wt.tag)
			}
		}
	}
}

// StateSizeHint is how many bytes AppendState writes for the tag store:
// the part of a slice's state that grows as the slice fills.
func (s *Slice) StateSizeHint() int {
	n := 0
	for _, valid := range s.valid {
		if valid > 0 {
			n += 3*8 + int(valid)*(8+1+8) // set header, then each line
		}
	}
	return n
}

// LoadState restores the state written by AppendState onto a freshly
// built slice of the same configuration (every set must still be empty).
// resolve maps a waiter tag back to the owning core's completion
// callback (the core must be restored first). Every decoded index and
// count is range-checked and every loop stops at the first read error, so
// corrupt input yields an error rather than a slice that panics later.
func (s *Slice) LoadState(r *snap.Reader, resolve func(tag uint64) (func(now int64), error)) error {
	s.tick = r.I64()
	for _, p := range stats.Counters(&s.stats) {
		*p = r.I64()
	}
	nSets, ways := len(s.valid), s.ways
	// Set indices must be strictly increasing, which also rules out
	// duplicates.
	occupied, err := readInt(r, 0, nSets+1, "occupied set count")
	if err != nil {
		return err
	}
	si := -1
	for ; occupied > 0; occupied-- {
		if si, err = readInt(r, si+1, nSets, "set index"); err != nil {
			return err
		}
		mru, err := readInt(r, 0, ways, "MRU way")
		if err != nil {
			return err
		}
		s.mru[si] = uint16(mru)
		n, err := readInt(r, 1, ways+1, "valid line count")
		if err != nil {
			return err
		}
		s.valid[si] = uint16(n)
		for way := si * ways; way < si*ways+n; way++ {
			s.tags[way], s.dirty[way], s.used[way] = r.U64(), r.Bool(), r.I64()
		}
	}
	s.pendingWB = s.pendingWB[:0]
	s.wbHead = 0
	nWB, err := readInt(r, 0, math.MaxInt, "pending writeback count")
	if err != nil {
		return err
	}
	for ; nWB > 0 && r.Err() == nil; nWB-- {
		s.pendingWB = append(s.pendingWB, r.U64())
	}
	s.hits = s.hits[:0]
	s.hitHead = 0
	nHits, err := readInt(r, 0, math.MaxInt, "hit delivery count")
	if err != nil {
		return err
	}
	for ; nHits > 0; nHits-- {
		h := hitDelivery{at: r.I64(), tag: r.U64()}
		if err := r.Err(); err != nil {
			return err
		}
		fn, err := resolve(h.tag)
		if err != nil {
			return fmt.Errorf("cache: hit delivery: %w", err)
		}
		h.onDone = fn
		s.hits = append(s.hits, h)
	}
	s.nextHitAt = math.MaxInt64
	if len(s.hits) > 0 {
		s.nextHitAt = s.hits[0].at
	}
	s.free = nil
	clear(s.mshr)
	pending, err := readInt(r, 0, math.MaxInt, "pending fill count")
	if err != nil {
		return err
	}
	for ; pending > 0; pending-- {
		e := &mshrEntry{lineAddr: r.U64(), dirty: r.Bool()}
		nw, err := readInt(r, 0, math.MaxInt, "waiter count")
		if err != nil {
			return err
		}
		si := e.lineAddr & s.setMask
		var tail *mshrEntry
		for o := s.mshr[si]; o != nil; o = o.next {
			if o.lineAddr == e.lineAddr {
				return fmt.Errorf("cache: two pending fills of line %#x", e.lineAddr)
			}
			tail = o
		}
		e.onFill = func(at int64) { s.fill(at, e) }
		for ; nw > 0; nw-- {
			wt := waiter{tag: r.U64()}
			if err := r.Err(); err != nil {
				return err
			}
			fn, err := resolve(wt.tag)
			if err != nil {
				return fmt.Errorf("cache: mshr waiter: %w", err)
			}
			wt.fn = fn
			e.waiters = append(e.waiters, wt)
		}
		if tail == nil {
			s.mshr[si] = e
		} else {
			tail.next = e
		}
	}
	return r.Err()
}

// readInt reads one Int and requires it to lie in [lo, hi); read errors
// take precedence over the range check.
func readInt(r *snap.Reader, lo, hi int, what string) (int, error) {
	v := r.Int()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if v < lo || v >= hi {
		return 0, fmt.Errorf("cache: %s %d out of range [%d, %d)", what, v, lo, hi)
	}
	return v, nil
}

// FillCallback returns the fill callback of the outstanding miss on the
// given line, for re-linking a restored memory controller's in-flight
// reads. A snapshot that references a line with no outstanding miss is
// corrupt.
func (s *Slice) FillCallback(lineAddr uint64) (func(at int64), error) {
	for e := s.mshr[lineAddr&s.setMask]; e != nil; e = e.next {
		if e.lineAddr == lineAddr {
			return e.onFill, nil
		}
	}
	return nil, fmt.Errorf("cache: no outstanding fill for line %#x", lineAddr)
}
