package cache_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"dsarp/internal/cache"
	"dsarp/internal/core"
	"dsarp/internal/sim"
	"dsarp/internal/snap"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// sealSection wraps body as the only section of a snap container with a
// valid header (magic, snap.Version, payload length, payload SHA-256), so
// fuzzed bytes reach Slice.LoadState instead of stopping at the seal.
func sealSection(body []byte) []byte {
	payload := binary.LittleEndian.AppendUint64(nil, uint64(len("slice")))
	payload = append(payload, "slice"...)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(len(body)))
	payload = append(payload, body...)
	sum := sha256.Sum256(payload)
	out := binary.LittleEndian.AppendUint64([]byte("DSNAP"), uint64(len(snap.Version)))
	out = append(out, snap.Version...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// sectionBody returns the body of the named section of a snap container.
func sectionBody(tb testing.TB, data []byte, name string) []byte {
	u64 := func(off int) int { return int(binary.LittleEndian.Uint64(data[off:])) }
	off := len("DSNAP")
	off += 8 + u64(off) + 8 + sha256.Size
	for off < len(data) {
		n := u64(off)
		got := string(data[off+8 : off+8+n])
		off += 8 + n
		body := u64(off)
		off += 8
		if got == name {
			return data[off : off+body]
		}
		off += body
	}
	tb.Fatalf("snapshot has no section %q", name)
	return nil
}

// fillBackend admits every read except on rejecting cycles and remembers
// the requested lines, whose fills the harness completes through
// FillCallback so each pending fill fires at most once.
type fillBackend struct {
	lines  []uint64
	reject bool
}

func (b *fillBackend) ReadLine(addr uint64, _ func(int64)) bool {
	if b.reject {
		return false
	}
	b.lines = append(b.lines, addr/uint64(cache.DefaultConfig().LineBytes))
	return true
}

func (b *fillBackend) WriteLine(uint64) bool { return !b.reject }

// loadSlice seals body and loads it onto a fresh default slice whose
// waiters all resolve to a no-op.
func loadSlice(tb testing.TB, body []byte) (*cache.Slice, *fillBackend, error) {
	r, err := snap.NewReader(sealSection(body))
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.Section("slice"); err != nil {
		tb.Fatal(err)
	}
	b := &fillBackend{}
	sl := cache.NewSlice(cache.DefaultConfig(), b)
	err = sl.LoadState(r, func(uint64) (func(int64), error) { return func(int64) {}, nil })
	return sl, b, err
}

// FuzzSliceLoadState feeds arbitrary slice-section bodies to LoadState on
// a fresh slice. Decoding must return rather than panic or hang, and a
// slice it accepts must survive a few hundred accesses, fills and ticks:
// some on lines drawn from the input, which hit restored lines and
// complete restored fills.
func FuzzSliceLoadState(f *testing.F) {
	// Seeds: every slice of an all-intensive 8-core mix at its 4k warmup
	// boundary (every one has pending fills, one has hits and MSHR
	// merges); each must load and re-encode to the same bytes.
	s, err := sim.NewSystem(sim.Config{
		Workload:  workload.Mixes(1, 8, 7)[4],
		Mechanism: core.KindDSARP,
		Density:   timing.Gb32,
		Seed:      1,
	})
	if err != nil {
		f.Fatal(err)
	}
	s.RunTo(4_000)
	data := s.Snapshot()
	for i := 0; i < 8; i++ {
		seed := sectionBody(f, data, fmt.Sprintf("slice%d", i))
		sl, _, err := loadSlice(f, seed)
		if err != nil {
			f.Fatalf("slice%d section does not load: %v", i, err)
		}
		w := snap.NewWriter(0)
		w.Section("slice")
		sl.AppendState(w)
		if !bytes.Equal(sectionBody(f, w.Finish(), "slice"), seed) {
			f.Fatalf("slice%d section does not re-encode to itself", i)
		}
		f.Add(seed)
	}
	f.Add([]byte{})

	noop := func(int64) {}
	f.Fuzz(func(t *testing.T, body []byte) {
		sl, b, err := loadSlice(t, body)
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(int64(len(body))))
		complete := func(line uint64, now int64) {
			if fill, err := sl.FillCallback(line); err == nil {
				fill(now)
			}
		}
		for now := int64(0); now < 300; now++ {
			b.reject = now%11 == 0
			// A small line range fills, evicts and writes back every set.
			line := uint64(rng.Intn(1 << 13))
			if now%2 == 1 && len(body) >= 8 {
				line = binary.LittleEndian.Uint64(body[rng.Intn(len(body)-7):])
				complete(line, now)
			}
			sl.Access(now, line*uint64(cache.DefaultConfig().LineBytes), now%3 == 0, uint64(now), noop)
			if now%5 == 0 {
				for _, l := range b.lines {
					complete(l, now)
				}
				b.lines = b.lines[:0]
			}
			sl.Tick(now)
		}
	})
}

// TestLoadStateRejectsCorruptSections pins the decoder's range and
// consistency checks: without them each section below indexes out of
// range, spins on a count, or chains one line's fill twice.
func TestLoadStateRejectsCorruptSections(t *testing.T) {
	cfg := cache.DefaultConfig()
	nSets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	// head writes the counters and the occupied-set count.
	head := func(w *snap.Writer, occupied int) {
		for i := 0; i < 6; i++ {
			w.I64(0)
		}
		w.Int(occupied)
	}
	// oneSet writes a complete section whose only occupied set holds n
	// valid lines.
	oneSet := func(w *snap.Writer, set, mru, n int) {
		head(w, 1)
		w.Int(set)
		w.Int(mru)
		w.Int(n)
		for i := 0; i < n; i++ {
			w.U64(uint64(set + i*nSets))
			w.Bool(false)
			w.I64(int64(i + 1))
		}
		w.Int(0) // writebacks
		w.Int(0) // hit deliveries
		w.Int(0) // pending fills
	}
	for _, tc := range []struct {
		name  string
		write func(w *snap.Writer)
	}{
		{"set index past the last set", func(w *snap.Writer) { oneSet(w, nSets, 0, 1) }},
		{"MRU way past the last way", func(w *snap.Writer) { oneSet(w, 3, cfg.Ways, 1) }},
		{"more valid lines than ways", func(w *snap.Writer) { oneSet(w, 3, 0, cfg.Ways+1) }},
		{"huge writeback count", func(w *snap.Writer) {
			head(w, 0)
			w.Int(1 << 62)
		}},
		{"two pending fills of one line", func(w *snap.Writer) {
			head(w, 0)
			w.Int(0) // writebacks
			w.Int(0) // hit deliveries
			w.Int(2) // pending fills
			for i := 0; i < 2; i++ {
				w.U64(6)
				w.Bool(false)
				w.Int(0)
			}
		}},
	} {
		w := snap.NewWriter(0)
		w.Section("slice")
		tc.write(w)
		r, err := snap.NewReader(w.Finish())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Section("slice"); err != nil {
			t.Fatal(err)
		}
		sl := cache.NewSlice(cfg, &fillBackend{})
		if err := sl.LoadState(r, nil); err == nil {
			t.Errorf("%s: LoadState accepted it", tc.name)
		}
	}
}
