// Package cache models the last-level cache of the evaluated system: a
// 16-way, 64 B-line, 512 KB private slice per core (paper Table 1). Misses
// become DRAM reads; dirty evictions become DRAM writes — the write traffic
// that DARP's write-refresh parallelization hides refreshes behind.
//
// The tag store is flat: per-way tag, LRU stamp and dirty arrays indexed
// set*Ways+way, plus a per-set count of valid lines. Nothing invalidates a
// line and a fill takes the first invalid way, so a set's valid lines are
// always a prefix of its ways: a probe scans only that prefix of one
// contiguous tag row, and a fill into a set that is not yet full takes way
// valid[set] without a victim search.
package cache

import (
	"fmt"
	"math"

	"dsarp/internal/fifo"
)

// Config sets the slice organization.
type Config struct {
	SizeBytes int
	Ways      int
	LineBytes int
	// HitLatency is the access latency of a hit, in DRAM cycles (the slice
	// is ticked in the DRAM clock domain; 3 DRAM cycles = 18 CPU cycles at
	// the 6:1 ratio, a typical LLC round trip).
	HitLatency int
}

// DefaultConfig mirrors Table 1 of the paper.
func DefaultConfig() Config {
	return Config{SizeBytes: 512 << 10, Ways: 16, LineBytes: 64, HitLatency: 3}
}

// Backend accepts the slice's DRAM traffic. Both methods return false when
// the controller queue is full; the slice retries.
type Backend interface {
	// ReadLine requests a line fill; onDone fires when data returns.
	ReadLine(addr uint64, onDone func(now int64)) bool
	// WriteLine queues a dirty writeback.
	WriteLine(addr uint64) bool
}

// waiter is one access awaiting an outstanding fill. tag identifies the
// requesting load at the core (its instruction position) so a restored
// snapshot can re-link fn, which does not serialize.
type waiter struct {
	tag uint64
	fn  func(now int64)
}

type mshrEntry struct {
	waiters  []waiter
	dirty    bool   // a store merged into the pending fill
	lineAddr uint64 // line being filled
	next     *mshrEntry
	// onFill hands the returned line to Slice.fill; built once per entry
	// and reused through the slice's free list so steady-state misses
	// allocate nothing.
	onFill func(at int64)
}

// Slice is one core's private LLC slice. Way w of set i lives at index
// i*Ways+w of tags, used and dirty; only the first valid[i] ways of set i
// hold lines, and the rest stay zero.
type Slice struct {
	cfg   Config
	tags  []uint64 // line address of each way
	used  []int64  // LRU stamp of each way
	dirty []bool
	valid []uint16 // per-set count of valid lines: its first ways
	mru   []uint16 // per-set way of the last hit: probed before the scan
	// setMask selects a line's set; ways is cfg.Ways.
	setMask uint64
	ways    int
	// mshr chains the outstanding fills of each set (a few entries at most,
	// almost always zero or one), replacing a lineAddr-keyed map: the probe
	// on every miss becomes a short pointer walk instead of a hash.
	mshr []*mshrEntry // per-set list heads
	free []*mshrEntry // filled entries awaiting reuse

	// pendingWB[wbHead:] are writebacks the backend rejected, retried in
	// Tick. The head index avoids pop-front reslicing, which would make
	// every append reallocate once the slice start has advanced.
	pendingWB []uint64
	wbHead    int

	// hits[hitHead:] are pending hit deliveries. Delivery times are
	// now+HitLatency with nondecreasing now, so the list is a FIFO sorted
	// by due time: Tick pops due heads instead of rescanning and
	// compacting the whole list every delivering cycle.
	hits      []hitDelivery
	hitHead   int
	nextHitAt int64 // earliest pending hit delivery (MaxInt64 when none)
	backend   Backend
	tick      int64
	stats     Stats
}

type hitDelivery struct {
	at     int64
	tag    uint64 // requesting load's core-side identity (see waiter)
	onDone func(now int64)
}

// Stats counts slice activity.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	MSHRMerges int64
	Writebacks int64
}

// MissRate is misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// NewSlice builds an LLC slice over a DRAM backend.
func NewSlice(cfg Config, backend Backend) *Slice {
	nSets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	if nSets <= 0 || nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a positive power of two", nSets))
	}
	if cfg.Ways > math.MaxUint16 {
		panic(fmt.Sprintf("cache: %d ways exceed the per-set count's range", cfg.Ways))
	}
	lines := nSets * cfg.Ways
	return &Slice{
		cfg:       cfg,
		tags:      make([]uint64, lines),
		used:      make([]int64, lines),
		dirty:     make([]bool, lines),
		valid:     make([]uint16, nSets),
		mru:       make([]uint16, nSets),
		setMask:   uint64(nSets - 1),
		ways:      cfg.Ways,
		mshr:      make([]*mshrEntry, nSets),
		nextHitAt: math.MaxInt64,
		backend:   backend,
	}
}

// Stats returns accumulated counters.
func (s *Slice) Stats() Stats { return s.stats }

// Access performs a load or store against the slice at DRAM cycle now.
// onDone (may be nil for stores) fires when the data is available; tag is
// the caller's identity for onDone (cpu.Memory semantics). Access returns
// false if the miss could not be admitted (DRAM read queue full); the
// caller must retry.
func (s *Slice) Access(now int64, addr uint64, write bool, tag uint64, onDone func(now int64)) bool {
	lineAddr := addr / uint64(s.cfg.LineBytes)
	// The full line address serves as the cache tag (set bits included):
	// simplest and unambiguous.
	ltag := lineAddr
	si := lineAddr & s.setMask
	base := int(si) * s.ways
	tags := s.tags[base : base+int(s.valid[si])]

	s.tick++
	// Probe the set's most recently hit way first (tags are unique within a
	// set, so probe order cannot change the outcome), then scan the valid
	// ways.
	way := int(s.mru[si])
	if !(way < len(tags) && tags[way] == ltag) {
		way = -1
		for i, t := range tags {
			if t == ltag {
				way = i
				break
			}
		}
	}
	if way >= 0 {
		s.mru[si] = uint16(way)
		s.used[base+way] = s.tick
		if write {
			s.dirty[base+way] = true
		}
		s.stats.Accesses++
		s.stats.Hits++
		if onDone != nil {
			at := now + int64(s.cfg.HitLatency)
			s.hits = append(s.hits, hitDelivery{at: at, tag: tag, onDone: onDone})
			if at < s.nextHitAt {
				s.nextHitAt = at
			}
		}
		return true
	}

	// Miss. Merge into an outstanding fill if one exists.
	for e := s.mshr[si]; e != nil; e = e.next {
		if e.lineAddr != lineAddr {
			continue
		}
		s.stats.Accesses++
		s.stats.Misses++
		s.stats.MSHRMerges++
		if write {
			e.dirty = true
		}
		if onDone != nil {
			e.waiters = append(e.waiters, waiter{tag: tag, fn: onDone})
		}
		return true
	}

	// New fill: admit to DRAM first so a full read queue backpressures the
	// core without mutating cache state.
	var e *mshrEntry
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
		e.waiters = e.waiters[:0]
		e.dirty = write
	} else {
		e = &mshrEntry{dirty: write}
		e.onFill = func(at int64) { s.fill(at, e) }
	}
	e.lineAddr = lineAddr
	if onDone != nil {
		e.waiters = append(e.waiters, waiter{tag: tag, fn: onDone})
	}
	missAddr := lineAddr * uint64(s.cfg.LineBytes)
	if !s.backend.ReadLine(missAddr, e.onFill) {
		s.free = append(s.free, e)
		return false
	}
	s.stats.Accesses++
	s.stats.Misses++
	e.next = s.mshr[si]
	s.mshr[si] = e
	return true
}

// fill installs a returned line in the set's first invalid way or, in a
// full set, over the LRU way (dirty victims are written back), and wakes
// the miss's waiters. The entry returns to the free list afterwards: its
// waiters have been delivered and its fill callback cannot fire again.
func (s *Slice) fill(now int64, e *mshrEntry) {
	lineAddr := e.lineAddr
	si := lineAddr & s.setMask
	if s.mshr[si] == e {
		s.mshr[si] = e.next
	} else {
		prev := s.mshr[si]
		for prev.next != e {
			prev = prev.next
		}
		prev.next = e.next
	}
	e.next = nil

	base := int(si) * s.ways
	victim := int(s.valid[si])
	if victim < s.ways {
		s.valid[si]++
	} else {
		used := s.used[base : base+s.ways]
		victim = 0
		for i, u := range used {
			if u < used[victim] {
				victim = i
			}
		}
		if s.dirty[base+victim] {
			s.writeback(s.tags[base+victim] * uint64(s.cfg.LineBytes))
		}
	}
	s.tick++
	s.tags[base+victim] = lineAddr
	s.used[base+victim] = s.tick
	s.dirty[base+victim] = e.dirty

	for _, w := range e.waiters {
		w.fn(now)
	}
	s.free = append(s.free, e)
}

func (s *Slice) writeback(addr uint64) {
	s.stats.Writebacks++
	if !s.backend.WriteLine(addr) {
		s.pendingWB = append(s.pendingWB, addr)
	}
}

// Tick delivers due hit callbacks and retries rejected writebacks. Call
// once per DRAM cycle before the cores advance.
func (s *Slice) Tick(now int64) {
	if now >= s.nextHitAt {
		for s.hitHead < len(s.hits) && s.hits[s.hitHead].at <= now {
			h := s.hits[s.hitHead]
			s.hits, s.hitHead = fifo.PopFront(s.hits, s.hitHead)
			h.onDone(now)
		}
		if s.hitHead < len(s.hits) {
			s.nextHitAt = s.hits[s.hitHead].at
		} else {
			s.nextHitAt = math.MaxInt64
		}
	}
	for s.wbHead < len(s.pendingWB) {
		if !s.backend.WriteLine(s.pendingWB[s.wbHead]) {
			break
		}
		s.pendingWB, s.wbHead = fifo.PopFront(s.pendingWB, s.wbHead)
	}
}

// NextEvent returns the earliest cycle >= now at which Tick could do
// anything: deliver a pending hit, or retry a rejected writeback (retries
// probe the controller — and mutate its stall counters — every cycle, so a
// non-empty retry list pins the slice to cycle stepping). Part of the
// clock-skipping engine's NextEvent contract (see sim); the slice has no
// per-cycle accounting, so it needs no Skip.
func (s *Slice) NextEvent(now int64) int64 {
	if s.wbHead < len(s.pendingWB) || s.nextHitAt <= now {
		return now
	}
	return s.nextHitAt
}

// PendingWritebacks reports writebacks awaiting controller admission.
func (s *Slice) PendingWritebacks() int { return len(s.pendingWB) - s.wbHead }
