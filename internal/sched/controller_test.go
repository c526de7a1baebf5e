package sched

import (
	"math/rand"
	"testing"

	"dsarp/internal/dram"
	"dsarp/internal/timing"
)

func testGeom() dram.Geometry {
	return dram.Geometry{Ranks: 1, Banks: 4, SubarraysPerBank: 4, RowsPerBank: 64,
		ColumnsPerRow: 8, RowsPerRef: 2}
}

func newCtrl(t *testing.T) (*Controller, *dram.Device) {
	t.Helper()
	tp := timing.DDR3(timing.Config{Mode: timing.RefNone})
	dev, err := dram.New(testGeom(), tp, dram.Options{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	return NewController(dev, DefaultConfig()), dev
}

func read(core int, a dram.Addr, done func(int64)) *Request {
	return &Request{Core: core, Addr: a, OnComplete: done}
}

func write(core int, a dram.Addr) *Request {
	return &Request{Core: core, IsWrite: true, Addr: a}
}

func runCycles(c *Controller, from, n int64) int64 {
	for i := int64(0); i < n; i++ {
		c.Tick(from + i)
	}
	return from + n
}

func TestReadCompletes(t *testing.T) {
	c, _ := newCtrl(t)
	var doneAt int64 = -1
	if !c.EnqueueRead(read(0, dram.Addr{Row: 3, Col: 1}, func(now int64) { doneAt = now }), 0) {
		t.Fatal("enqueue rejected")
	}
	runCycles(c, 0, 200)
	if doneAt < 0 {
		t.Fatal("read never completed")
	}
	st := c.Stats()
	if st.ReadsServed != 1 {
		t.Fatalf("ReadsServed = %d", st.ReadsServed)
	}
	// Minimum latency: ACT + tRCD + CL + BL.
	tp := c.Timing()
	min := int64(tp.TRCD + tp.CL + tp.BL)
	if lat := st.ReadLatencySum; lat < min {
		t.Errorf("read latency %d below physical minimum %d", lat, min)
	}
}

func TestReadForwardedFromWriteQueue(t *testing.T) {
	c, _ := newCtrl(t)
	a := dram.Addr{Row: 3, Col: 1}
	c.EnqueueWrite(write(0, a), 0)
	var done bool
	c.EnqueueRead(read(0, a, func(int64) { done = true }), 0)
	if c.Stats().ForwardedReads != 1 {
		t.Fatal("read to a queued write address should forward")
	}
	runCycles(c, 0, 5)
	if !done {
		t.Error("forwarded read never completed")
	}
}

func TestWriteMerging(t *testing.T) {
	c, _ := newCtrl(t)
	a := dram.Addr{Row: 3, Col: 1}
	c.EnqueueWrite(write(0, a), 0)
	c.EnqueueWrite(write(0, a), 0)
	if c.WriteQueueLen() != 1 {
		t.Errorf("write queue len = %d after merge, want 1", c.WriteQueueLen())
	}
	if c.Stats().MergedWrites != 1 {
		t.Errorf("MergedWrites = %d", c.Stats().MergedWrites)
	}
}

func TestReadQueueBackpressure(t *testing.T) {
	c, _ := newCtrl(t)
	cfg := DefaultConfig()
	for i := 0; i < cfg.ReadQueueCap; i++ {
		if !c.EnqueueRead(read(0, dram.Addr{Row: i % 16, Col: i % 8}, nil), 0) {
			t.Fatalf("enqueue %d rejected below capacity", i)
		}
	}
	if c.EnqueueRead(read(0, dram.Addr{Row: 1, Col: 1}, nil), 0) {
		t.Error("enqueue accepted beyond capacity")
	}
	if c.Stats().ReadQueueFullStalls != 1 {
		t.Errorf("ReadQueueFullStalls = %d", c.Stats().ReadQueueFullStalls)
	}
}

func TestWriteBatchingWatermarks(t *testing.T) {
	c, _ := newCtrl(t)
	cfg := DefaultConfig()
	// Fill the write queue to the high watermark: writeback mode begins.
	now := int64(0)
	for i := 0; i < cfg.WriteHigh; i++ {
		a := dram.Addr{Bank: i % 4, Row: (i / 4) % 16, Col: i % 8}
		if !c.EnqueueWrite(write(0, a), now) {
			t.Fatalf("write %d rejected", i)
		}
	}
	c.Tick(now)
	if !c.WriteMode() {
		t.Fatal("writeback mode should start at the high watermark")
	}
	// Drain: writeback mode must end at (or below) the low watermark.
	for i := int64(1); i < 5000 && c.WriteMode(); i++ {
		c.Tick(now + i)
	}
	if c.WriteMode() {
		t.Fatal("writeback mode never ended")
	}
	if c.WriteQueueLen() > cfg.WriteLow {
		t.Errorf("write queue %d above low watermark %d at drain end", c.WriteQueueLen(), cfg.WriteLow)
	}
	if c.Stats().WriteModeEntries != 1 {
		t.Errorf("WriteModeEntries = %d", c.Stats().WriteModeEntries)
	}
}

func TestRowHitsServedBeforeConflictingActivation(t *testing.T) {
	c, _ := newCtrl(t)
	done := make([]int64, 3)
	// Two hits to row 3 and one conflicting request to row 4, same bank.
	c.EnqueueRead(read(0, dram.Addr{Row: 3, Col: 0}, func(n int64) { done[0] = n }), 0)
	c.EnqueueRead(read(0, dram.Addr{Row: 4, Col: 0}, func(n int64) { done[1] = n }), 0)
	c.EnqueueRead(read(0, dram.Addr{Row: 3, Col: 1}, func(n int64) { done[2] = n }), 0)
	runCycles(c, 0, 500)
	if done[0] == 0 || done[1] == 0 || done[2] == 0 {
		t.Fatalf("not all reads completed: %v", done)
	}
	if !(done[2] < done[1]) {
		t.Errorf("FR-FCFS should serve the row hit first: %v", done)
	}
}

func TestClosedRowAutoprecharge(t *testing.T) {
	c, dev := newCtrl(t)
	c.EnqueueRead(read(0, dram.Addr{Row: 3, Col: 0}, nil), 0)
	runCycles(c, 0, 100)
	if dev.OpenRow(0, 0) != dram.NoRow {
		t.Error("closed-row policy should auto-precharge after the last hit")
	}
}

func TestOpenRowKeepsRowOpen(t *testing.T) {
	tp := timing.DDR3(timing.Config{Mode: timing.RefNone})
	dev := dram.MustNew(testGeom(), tp, dram.Options{Check: true})
	cfg := DefaultConfig()
	cfg.OpenRow = true
	c := NewController(dev, cfg)
	c.EnqueueRead(read(0, dram.Addr{Row: 3, Col: 0}, nil), 0)
	runCycles(c, 0, 100)
	if dev.OpenRow(0, 0) != 3 {
		t.Errorf("open-row policy should keep row 3 open, got %d", dev.OpenRow(0, 0))
	}
}

func TestRequestConservationUnderRandomLoad(t *testing.T) {
	// Property: every admitted request completes exactly once, under a
	// random mix of reads and writes with backpressure retries.
	c, dev := newCtrl(t)
	rng := rand.New(rand.NewSource(7))
	g := testGeom()

	const want = 500
	injectedReads, injectedWrites := 0, 0
	completions := 0
	now := int64(0)
	for injectedReads+injectedWrites < want || !c.Drained() {
		if injectedReads+injectedWrites < want && rng.Intn(3) > 0 {
			a := dram.Addr{
				Bank: rng.Intn(g.Banks),
				Row:  rng.Intn(g.RowsPerBank),
				Col:  rng.Intn(g.ColumnsPerRow),
			}
			if rng.Intn(4) == 0 {
				if c.EnqueueWrite(write(0, a), now) {
					injectedWrites++
				}
			} else {
				if c.EnqueueRead(read(0, a, func(int64) { completions++ }), now) {
					injectedReads++
				}
			}
		}
		c.Tick(now)
		now++
		if now > 1_000_000 {
			t.Fatal("load never drained")
		}
	}
	st := c.Stats()
	// ReadsServed counts every completed read, forwarded ones included.
	if int(st.ReadsServed) != injectedReads {
		t.Errorf("reads served = %d, injected %d", st.ReadsServed, injectedReads)
	}
	if completions != injectedReads {
		t.Errorf("read completions = %d, injected %d", completions, injectedReads)
	}
	if int(st.WritesServed)+int(st.MergedWrites) != injectedWrites {
		t.Errorf("writes served+merged = %d, injected %d", st.WritesServed+st.MergedWrites, injectedWrites)
	}
	if err := dev.Checker().Err(); err != nil {
		t.Fatalf("protocol violations under random load: %v", err)
	}
}

func TestAvgReadLatency(t *testing.T) {
	if got := (Stats{ReadsServed: 6, ReadLatencySum: 70}).AvgReadLatency(); got != 70.0/6 {
		t.Errorf("AvgReadLatency = %v", got)
	}
	if got := (Stats{}).AvgReadLatency(); got != 0 {
		t.Errorf("AvgReadLatency with no reads = %v", got)
	}
}

func TestBadConfigPanics(t *testing.T) {
	tp := timing.DDR3(timing.Config{Mode: timing.RefNone})
	dev := dram.MustNew(testGeom(), tp, dram.Options{})
	defer func() {
		if recover() == nil {
			t.Error("NewController accepted low watermark >= high")
		}
	}()
	NewController(dev, Config{ReadQueueCap: 8, WriteQueueCap: 8, WriteHigh: 4, WriteLow: 4})
}
