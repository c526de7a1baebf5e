package cache

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"dsarp/internal/snap"
	"dsarp/internal/stats"
)

// refSlice is the slice as it was before the flat tag store: one []refLine
// per set, each way with its own valid flag, probed and filled by scanning
// the whole set. TestTagStoreMatchesReference drives it in lockstep with
// Slice. Waiter callbacks are not modelled, only their tags, which is what
// a snapshot records.
type refSlice struct {
	cfg   Config
	sets  [][]refLine
	mru   []uint16
	fills [][]*refFill // per set, in chain order: newest first
	wbs   []uint64     // writebacks the backend rejected, awaiting retry
	hits  []refHit
	tick  int64
	stats Stats
	b     *fakeBackend
}

type refLine struct {
	tag          uint64
	valid, dirty bool
	used         int64
}

type refFill struct {
	line    uint64
	dirty   bool
	waiters []uint64
}

type refHit struct {
	at  int64
	tag uint64
}

func newRefSlice(cfg Config, b *fakeBackend) *refSlice {
	nSets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	s := &refSlice{cfg: cfg, mru: make([]uint16, nSets), fills: make([][]*refFill, nSets), b: b}
	for i := 0; i < nSets; i++ {
		s.sets = append(s.sets, make([]refLine, cfg.Ways))
	}
	return s
}

func (s *refSlice) set(line uint64) uint64 { return line & uint64(len(s.sets)-1) }

func (s *refSlice) access(now int64, addr uint64, write bool, tag uint64, wait bool) bool {
	line := addr / uint64(s.cfg.LineBytes)
	si := s.set(line)
	set := s.sets[si]
	s.tick++
	way := int(s.mru[si])
	if !(set[way].valid && set[way].tag == line) {
		way = -1
		for i := range set {
			if set[i].valid && set[i].tag == line {
				way = i
				break
			}
		}
	}
	if way >= 0 {
		s.mru[si] = uint16(way)
		set[way].used = s.tick
		if write {
			set[way].dirty = true
		}
		s.stats.Accesses++
		s.stats.Hits++
		if wait {
			s.hits = append(s.hits, refHit{at: now + int64(s.cfg.HitLatency), tag: tag})
		}
		return true
	}
	for _, f := range s.fills[si] {
		if f.line != line {
			continue
		}
		s.stats.Accesses++
		s.stats.Misses++
		s.stats.MSHRMerges++
		if write {
			f.dirty = true
		}
		if wait {
			f.waiters = append(f.waiters, tag)
		}
		return true
	}
	if !s.b.ReadLine(line*uint64(s.cfg.LineBytes), nil) {
		return false
	}
	s.stats.Accesses++
	s.stats.Misses++
	f := &refFill{line: line, dirty: write}
	if wait {
		f.waiters = append(f.waiters, tag)
	}
	s.fills[si] = append([]*refFill{f}, s.fills[si]...)
	return true
}

func (s *refSlice) fill(line uint64) {
	si := s.set(line)
	var f *refFill
	for i, g := range s.fills[si] {
		if g.line == line {
			f = g
			s.fills[si] = append(s.fills[si][:i:i], s.fills[si][i+1:]...)
			break
		}
	}
	set := s.sets[si]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		s.stats.Writebacks++
		if addr := set[victim].tag * uint64(s.cfg.LineBytes); !s.b.WriteLine(addr) {
			s.wbs = append(s.wbs, addr)
		}
	}
	s.tick++
	set[victim] = refLine{tag: line, valid: true, dirty: f.dirty, used: s.tick}
}

func (s *refSlice) tickAt(now int64) {
	for len(s.hits) > 0 && s.hits[0].at <= now {
		s.hits = s.hits[1:]
	}
	for len(s.wbs) > 0 && s.b.WriteLine(s.wbs[0]) {
		s.wbs = s.wbs[1:]
	}
}

// appendState writes the slice section in the layout Slice.AppendState
// has always written.
func (s *refSlice) appendState(w *snap.Writer) {
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
		n := 0
		for n < len(set) && set[n].valid {
			n++
		}
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
	w.Int(len(s.wbs))
	for _, a := range s.wbs {
		w.U64(a)
	}
	w.Int(len(s.hits))
	for _, h := range s.hits {
		w.I64(h.at)
		w.U64(h.tag)
	}
	pending := 0
	for _, fs := range s.fills {
		pending += len(fs)
	}
	w.Int(pending)
	for _, fs := range s.fills {
		for _, f := range fs {
			w.U64(f.line)
			w.Bool(f.dirty)
			w.Int(len(f.waiters))
			for _, t := range f.waiters {
				w.U64(t)
			}
		}
	}
}

// sectionOf serializes one slice section with fn.
func sectionOf(fn func(w *snap.Writer)) []byte {
	w := snap.NewWriter(0)
	w.Section("slice")
	fn(w)
	return w.Finish()
}

// TestTagStoreMatchesReference is the oracle for the flat tag store: over
// random sequences of loads, stores, fills, ticks and backend rejections
// on a few small sets, Slice and the set-of-lines reference must agree on
// every access's outcome, on the DRAM reads and writebacks they issue (in
// order), on their counters, and on every byte of their snapshot section.
func TestTagStoreMatchesReference(t *testing.T) {
	cfgs := []Config{
		{SizeBytes: 4 * 4 * 64, Ways: 4, LineBytes: 64, HitLatency: 3},
		{SizeBytes: 2 * 8 * 64, Ways: 8, LineBytes: 64, HitLatency: 2},
		{SizeBytes: 8 * 1 * 64, Ways: 1, LineBytes: 64, HitLatency: 1},
	}
	for seed := int64(1); seed <= 30; seed++ {
		cfg := cfgs[seed%int64(len(cfgs))]
		rng := rand.New(rand.NewSource(seed))
		nb, rb := &fakeBackend{}, &fakeBackend{}
		s, ref := NewSlice(cfg, nb), newRefSlice(cfg, rb)
		nLines := 3 * cfg.SizeBytes / cfg.LineBytes // three lines per way
		for now := int64(0); now < 3000; now++ {
			reject := rng.Intn(8) == 0
			nb.reject, rb.reject = reject, reject
			switch op := rng.Intn(10); {
			case op < 6:
				addr := uint64(rng.Intn(nLines)*cfg.LineBytes + rng.Intn(cfg.LineBytes))
				write := rng.Intn(3) == 0
				wait := !write || rng.Intn(2) == 0
				var onDone func(int64)
				if wait {
					onDone = func(int64) {}
				}
				got := s.Access(now, addr, write, uint64(now), onDone)
				want := ref.access(now, addr, write, uint64(now), wait)
				if got != want {
					t.Fatalf("seed %d cycle %d: Access(%#x) admitted %v, reference %v", seed, now, addr, got, want)
				}
			case op < 8:
				var pending []uint64
				for _, fs := range ref.fills {
					for _, f := range fs {
						pending = append(pending, f.line)
					}
				}
				if len(pending) == 0 {
					continue
				}
				line := pending[rng.Intn(len(pending))]
				fill, err := s.FillCallback(line)
				if err != nil {
					t.Fatalf("seed %d cycle %d: %v", seed, now, err)
				}
				fill(now)
				ref.fill(line)
			default:
				s.Tick(now)
				ref.tickAt(now)
			}
			// Equal counters after every step pin each access's outcome:
			// hit, miss or MSHR merge.
			if s.Stats() != ref.stats {
				t.Fatalf("seed %d cycle %d: stats %+v, reference %+v", seed, now, s.Stats(), ref.stats)
			}
			if now%100 == 99 {
				got, want := sectionOf(s.AppendState), sectionOf(ref.appendState)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d cycle %d: snapshot section differs from the reference's", seed, now)
				}
			}
		}
		if !reflect.DeepEqual(nb.reads, rb.reads) {
			t.Errorf("seed %d: DRAM reads differ:\n got %v\nwant %v", seed, nb.reads, rb.reads)
		}
		if !reflect.DeepEqual(nb.writes, rb.writes) {
			t.Errorf("seed %d: writebacks differ:\n got %v\nwant %v", seed, nb.writes, rb.writes)
		}
		if st := s.Stats(); st.Hits == 0 || st.MSHRMerges == 0 || st.Writebacks == 0 {
			t.Errorf("seed %d: sequence too tame to test anything: %+v", seed, st)
		}
	}
}
