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
// line, each as set index, MRU way and line count, then tag, dirty bit and
// LRU stamp per valid line. The format relies on a set's valid lines being
// a prefix of its ways: fill takes the first invalid way and nothing
// invalidates a line. Every other way is the zero line a fresh slice
// already holds (an invalid way's fields are never read), so the snapshot
// grows with the touched footprint rather than the slice size, and a full
// set costs what the dense layout did. Pending fills are written as one
// entry count, then the entries in set order and, within a set, in chain
// order; each entry's set follows from its line address.
func (s *Slice) AppendState(w *snap.Writer) {
	w.I64(s.tick)
	for _, p := range stats.Counters(&s.stats) {
		w.I64(*p)
	}
	occupied := 0
	for _, set := range s.sets {
		if set[0].valid {
			occupied++
		}
	}
	w.Int(occupied)
	for si, set := range s.sets {
		n := validPrefix(set)
		if n == 0 {
			continue
		}
		w.Int(si)
		w.Int(int(s.mru[si]))
		w.Int(n)
		for _, ln := range set[:n] {
			w.U64(ln.tag)
			w.Bool(ln.dirty)
			w.I64(ln.used)
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

// validPrefix counts a set's valid lines, which occupy its first ways.
func validPrefix(set []line) int {
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	return len(set)
}

// LoadState restores the state written by AppendState onto a freshly
// built slice of the same configuration (its ways must still be zero
// lines). resolve maps a waiter tag back to the owning core's completion
// callback (the core must be restored first). Every decoded index and
// count is range-checked and every loop stops at the first read error, so
// corrupt input yields an error rather than a slice that panics later.
func (s *Slice) LoadState(r *snap.Reader, resolve func(tag uint64) (func(now int64), error)) error {
	s.tick = r.I64()
	for _, p := range stats.Counters(&s.stats) {
		*p = r.I64()
	}
	nSets, ways := len(s.sets), s.cfg.Ways
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
		set := s.sets[si]
		for way := 0; way < n; way++ {
			set[way] = line{tag: r.U64(), valid: true, dirty: r.Bool(), used: r.I64()}
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
