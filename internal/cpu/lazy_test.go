package cpu

import (
	"bytes"
	"math"
	"testing"

	"dsarp/internal/snap"
	"dsarp/internal/trace"
)

// scriptedMem answers accesses from a fixed script keyed on the access
// count and address: a rejection the core must retry, a slice-phase
// delivery a few cycles later (an LLC hit), or a controller-phase delivery
// up to a few hundred cycles later, possibly in the issuing cycle itself (a
// DRAM read or a forwarded one). Two stubs fed the same access stream make
// the same decisions at the same cycles.
type scriptedMem struct {
	n       uint64
	pending []delivery
}

type delivery struct {
	at   int64
	ctrl bool // controller phase (after the core phase), not slice phase
	tag  uint64
	fn   func(int64)
}

func (m *scriptedMem) Access(now int64, addr uint64, write bool, tag uint64, onDone func(int64)) bool {
	m.n++
	h := (m.n ^ addr) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	if h%11 == 0 {
		return false
	}
	if onDone == nil {
		return true
	}
	d := delivery{tag: tag, fn: onDone}
	if (h>>8)%3 == 0 {
		d.at = now + 1 + int64((h>>16)%8)
	} else {
		d.ctrl, d.at = true, now+int64((h>>16)%400)
	}
	m.pending = append(m.pending, d)
	return true
}

// deliver fires, in issue order, every delivery of the given phase due by
// cycle t, and reports how many it fired.
func (m *scriptedMem) deliver(t int64, ctrl bool) int {
	var due []delivery
	kept := m.pending[:0]
	for _, d := range m.pending {
		if d.ctrl == ctrl && d.at <= t {
			due = append(due, d)
		} else {
			kept = append(kept, d)
		}
	}
	m.pending = kept
	for _, d := range due {
		d.fn(t)
	}
	return len(due)
}

// next is the cycle of the earliest pending delivery.
func (m *scriptedMem) next() int64 {
	next := int64(math.MaxInt64)
	for _, d := range m.pending {
		next = min(next, d.at)
	}
	return next
}

func coreBytes(c *Core) []byte {
	w := snap.NewWriter(0)
	w.Section("core")
	c.AppendState(w)
	return w.Finish()
}

// TestLazyClockMatchesEager drives two cores built from the same generator
// seed over identical memory scripts. The eager core runs the reference
// stepper: each cycle it ticks when it has an event and is replayed by
// Skip(1) when it has none. The lazy core runs against a horizon the way
// the event engine drives it: it is left alone over whole windows in which
// neither it nor its memory has an event, and only touched again by its own
// Tick, a completion in the slice or controller phase, Stats, AppendState,
// or a restore from its own snapshot. After every step, Stats and the
// AppendState bytes must match; the order of the two comparisons
// alternates, so that neither catches the lazy core up for the other.
func TestLazyClockMatchesEager(t *testing.T) {
	profiles := []trace.Profile{
		{Name: "intensive", APKI: 60, FootprintBytes: 64 << 20, WriteFrac: 0.3, Pattern: trace.Random, BurstLen: 4},
		{Name: "light", APKI: 4, FootprintBytes: 1 << 20, WriteFrac: 0.2, Pattern: trace.Stream},
		{Name: "chase", APKI: 25, FootprintBytes: 64 << 20, Pattern: trace.Chase, MaxOutstanding: 1},
	}
	for _, cc := range []Config{DefaultConfig(), cfg()} {
		for _, prof := range profiles {
			t.Run(prof.Name, func(t *testing.T) { lazyVsEager(t, cc, prof, 20_000) })
		}
	}
}

func lazyVsEager(t *testing.T, cc Config, prof trace.Profile, cycles int64) {
	const seed = 7
	eagerMem, lazyMem := &scriptedMem{}, &scriptedMem{}
	eager := New(0, cc, trace.New(prof, seed), prof.MaxOutstanding, 0, eagerMem)
	var h int64
	build := func() *Core {
		c := New(0, cc, trace.New(prof, seed), prof.MaxOutstanding, 0, lazyMem)
		c.SetHorizon(&h)
		return c
	}
	lazy := build()

	eagerCycle := func(now int64) {
		eagerMem.deliver(now, false)
		if eager.NextEvent(now) <= now {
			eager.Tick(now)
		} else {
			eager.Skip(1)
		}
		eagerMem.deliver(now, true)
	}
	// Contacts that found the lazy core behind the horizon: without them
	// the test would not exercise a catch-up.
	var laggedTicks, laggedSlice, laggedCtrl, restores int

	now := int64(0)
	for step := 0; now < cycles; step++ {
		// The lazy core is not touched before its next event or its
		// memory's next delivery; the eager core steps every cycle.
		for next := min(lazy.NextEvent(now), lazyMem.next(), cycles); now < next; now++ {
			eagerCycle(now)
		}
		h = now
		if now < cycles {
			lagging := lazy.at < h
			if lazyMem.deliver(now, false) > 0 && lagging {
				laggedSlice++
			}
			if lazy.NextEvent(now) <= now {
				if lazy.at < now {
					laggedTicks++
				}
				lazy.Tick(now)
			}
			h = now + 1
			lagging = lazy.at < h
			if lazyMem.deliver(now, true) > 0 && lagging {
				laggedCtrl++
			}
			eagerCycle(now)
			now++
		}

		var lazyStats Stats
		var lazyState []byte
		if step%2 == 0 {
			lazyStats, lazyState = lazy.Stats(), coreBytes(lazy)
		} else {
			lazyState, lazyStats = coreBytes(lazy), lazy.Stats()
		}
		if want := eager.Stats(); lazyStats != want {
			t.Fatalf("step %d (cycle %d): stats diverged:\n eager: %+v\n  lazy: %+v", step, now, want, lazyStats)
		}
		if !bytes.Equal(lazyState, coreBytes(eager)) {
			t.Fatalf("step %d (cycle %d): AppendState bytes diverged", step, now)
		}

		if step%97 == 96 {
			// Resume the lazy core from its own snapshot: its pending
			// completions now run the closures LoadState builds.
			// Like RestoreSystem, wire the core at cycle 0 and move the
			// horizon to the snapshot's cycle before LoadState.
			r, err := snap.NewReader(lazyState)
			if err != nil {
				t.Fatal(err)
			}
			saved := h
			h = 0
			restored := build()
			h = saved
			if err := r.Section("core"); err != nil {
				t.Fatal(err)
			}
			if err := restored.LoadState(r); err != nil {
				t.Fatal(err)
			}
			for i, d := range lazyMem.pending {
				if lazyMem.pending[i].fn, err = restored.CompletionFor(d.tag); err != nil {
					t.Fatal(err)
				}
			}
			lazy = restored
			restores++
		}
	}
	if laggedTicks == 0 || laggedSlice == 0 || laggedCtrl == 0 || restores == 0 {
		t.Errorf("lagged ticks %d, slice-phase completions %d, controller-phase completions %d, restores %d: every kind of contact must find the lazy core behind at least once",
			laggedTicks, laggedSlice, laggedCtrl, restores)
	}
}
