// Package sim assembles the full evaluated system of Chang et al. (HPCA
// 2014, Table 1): trace-driven cores, private LLC slices, per-channel
// memory controllers with a refresh mechanism, and the DRAM timing model —
// and runs it for a warmup + measurement window.
package sim

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"dsarp/internal/cache"
	"dsarp/internal/core"
	"dsarp/internal/cpu"
	"dsarp/internal/dram"
	"dsarp/internal/power"
	"dsarp/internal/sched"
	"dsarp/internal/stats"
	"dsarp/internal/timing"
	"dsarp/internal/trace"
	"dsarp/internal/workload"
)

// Engine selects the simulation run loop.
type Engine int

const (
	// EngineEvent is the event-driven clock-skipping engine (the default):
	// the run loop advances time directly to the earliest cycle at which any
	// component can do something, falling back to cycle stepping whenever a
	// component answers "now". Cores run lazy clocks (System.horizon): the
	// engine never touches a core without an event. Bit-identical to
	// EngineCycle by construction of the NextEvent contract (pinned by the
	// engine-equivalence tests).
	EngineEvent Engine = iota
	// EngineCycle is the reference per-cycle stepper: every component ticks
	// on every DRAM cycle, and every core accounts each cycle eagerly.
	EngineCycle
)

// String returns the engine's flag spelling.
func (e Engine) String() string {
	switch e {
	case EngineEvent:
		return "event"
	case EngineCycle:
		return "cycle"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine resolves an -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "event":
		return EngineEvent, nil
	case "cycle":
		return EngineCycle, nil
	default:
		return 0, fmt.Errorf("sim: unknown engine %q (want cycle or event)", s)
	}
}

// Config describes one simulation.
type Config struct {
	Workload  workload.Workload
	Mechanism core.Kind
	Density   timing.Density
	Retention timing.Retention

	Channels         int // default 2
	SubarraysPerBank int // default 8 (Table 5 sweeps this)

	CPU   cpu.Config
	Cache cache.Config
	Sched sched.Config

	// OpenRow switches the controller to an open-row page policy
	// (ablation D4).
	OpenRow bool

	// AdjustTiming, if non-nil, edits the derived timing parameters before
	// the system is built (the Table 4 tFAW/tRRD sweep).
	AdjustTiming func(*timing.Params)

	// Policy, if non-nil, overrides the scheduling policy built from
	// Mechanism (the Mechanism still selects SARP and the timing mode). It
	// is called once per channel with that channel's controller. Every
	// sched.RefreshPolicy serializes, so such a run checkpoints and resumes
	// like a stock one. Used by the DESIGN.md ablations to run DARP
	// variants.
	Policy func(ctl *sched.Controller, seed int64) sched.RefreshPolicy

	// Engine selects the run loop; the zero value is the clock-skipping
	// event engine. Both engines produce identical Results (modulo the
	// SteppedCycles accounting of the engine itself).
	Engine Engine

	Seed int64

	// Warmup and Measure are DRAM-cycle counts. The paper runs 256M CPU
	// cycles; see DESIGN.md substitution 2 for the scaled defaults.
	Warmup  int64
	Measure int64

	// Stop, if non-nil, is a cooperative abort flag: the run loop polls it
	// every few thousand cycles and, once it reads true, Run returns
	// ErrInterrupted instead of a Result. This is the per-simulation
	// watchdog hook (exp.Options.SimTimeout arms it from a wall-clock
	// timer); an aborted run produces no partial Result, so nothing
	// half-measured can ever reach a cache or store. Nil costs nothing on
	// the hot path.
	Stop *atomic.Bool

	// Check attaches the DRAM protocol checker (slower; used in tests).
	Check bool
}

// WithDefaults fills unset fields with the paper's Table 1 configuration.
func (c Config) WithDefaults() Config {
	if c.Channels == 0 {
		c.Channels = 2
	}
	if c.SubarraysPerBank == 0 {
		c.SubarraysPerBank = 8
	}
	if c.CPU == (cpu.Config{}) {
		c.CPU = cpu.DefaultConfig()
	}
	if c.Cache == (cache.Config{}) {
		c.Cache = cache.DefaultConfig()
	}
	if c.Sched == (sched.Config{}) {
		c.Sched = sched.DefaultConfig()
	}
	if c.Density == 0 {
		c.Density = timing.Gb8
	}
	if c.Retention == 0 {
		c.Retention = timing.Retention32ms
	}
	if c.Warmup == 0 {
		c.Warmup = 50_000
	}
	if c.Measure == 0 {
		c.Measure = 200_000
	}
	return c
}

// Result is the outcome of one simulation's measurement window.
type Result struct {
	Mechanism string
	Workload  string

	IPC   []float64 // per-core IPC over the measurement window
	MPKI  []float64 // per-core LLC misses per kilo-instruction
	Cores []cpu.Stats
	Cache []cache.Stats

	DRAM   dram.Stats
	Sched  sched.Stats
	Energy power.Breakdown

	MeasuredCycles int64 // DRAM cycles

	// SteppedCycles is the number of measurement-window cycles the engine
	// actually ticked; the rest were proven eventless and skipped. Under
	// EngineCycle it equals MeasuredCycles. It describes the engine, not the
	// simulated machine — the equivalence tests zero it before comparing.
	SteppedCycles int64

	CheckErr error
}

// EnergyPerAccess is nJ per serviced DRAM access in the window.
func (r Result) EnergyPerAccess() float64 { return r.Energy.PerAccess(r.DRAM.Accesses()) }

// SkipRate reports cycles simulated / cycles elapsed — NOT the fraction
// skipped: 1.0 means every cycle was stepped (no skipping at all), 0.2
// means four fifths of the window was skipped. Lower is faster.
func (r Result) SkipRate() float64 {
	if r.MeasuredCycles == 0 {
		return 0
	}
	return float64(r.SteppedCycles) / float64(r.MeasuredCycles)
}

// System is a fully wired simulated machine.
type System struct {
	cfg    Config
	tp     timing.Params
	geom   dram.Geometry
	mapper sched.Mapper

	devs   []*dram.Device
	ctrls  []*sched.Controller
	slices []*cache.Slice
	cores  []*cpu.Core

	now     int64
	stepped int64 // cycles actually ticked (the rest were skipped)
	nextID  int64

	// horizon is the cycle up to which the cores' state must be accounted
	// whenever something can read or change it: t during the slice and
	// core phases of cycle t, t+1 once the core phase ends, so now between
	// cycles. Under EngineEvent every core runs a lazy clock against it
	// (cpu.Core.SetHorizon): the engine never touches a core that has no
	// event, and the core replays its elided cycles when next touched.
	// Under EngineCycle no core reads it and every core accounts eagerly,
	// which keeps the cycle engine the reference the lazy clocks are
	// tested against.
	horizon int64

	// hot identifies the component that most recently forced a step
	// (demanded its NextEvent cycle immediately). Active components tend to
	// stay active for runs of cycles, so NextEvent probes it first and
	// skips the full scan while it keeps answering "now". Purely an
	// optimization: any component answering "now" forces a step regardless
	// of the others. Stored as a concrete kind+index pair rather than an
	// interface so the per-cycle probe is a direct call.
	hotKind int8 // hotNone, or the component list hotIdx indexes
	hotIdx  int

	// Event-loop saturation state. These live on the System rather than as
	// RunTo locals so a snapshot captures them and a resumed run's engine
	// makes the same step-vs-skip decisions as the uninterrupted run — the
	// SteppedCycles accounting is part of the bit-exactness contract.
	loopSat   int  // consecutive-stepped saturation counter
	loopBlind int  // plain Steps remaining in the current blind window
	keepLoop  bool // one-shot: next RunTo keeps loopSat/loopBlind/landing (set by restore)
	// landing is true while a skip's landing step is pending: set around
	// the checkpoint taken on the cycle a skip landed on, and left set when
	// a skip lands on an event at exactly RunTo's end, so a run resumed
	// from that snapshot takes the same uncounted landing step first.
	landing bool

	// Checkpoint schedule, armed by RunWithCheckpoints/ResumeRun: a snapshot
	// is captured whenever the clock reaches ckptNext.
	ckptEvery int64
	ckptNext  int64
	ckptSink  Checkpointer
	// snapRest is the room the next snapshot's buffer leaves beyond the
	// slices' tag stores (see Snapshot): a per-core allowance until a
	// snapshot has measured it.
	snapRest int

	// Measurement baseline (beginMeasure). Carried in snapshots so a resumed
	// run windows its Result identically to the cold run.
	inMeasure    bool
	start        snapshot
	startStepped int64
}

// hot-component kinds (System.hotKind).
const (
	hotNone = int8(iota)
	hotCore
	hotSlice
	hotCtrl
)

// coreBaseStride separates core footprints in physical memory (8 GB apart).
const coreBaseStride = 1 << 33

// NewSystem wires a system from a config.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.WithDefaults()
	nCores := len(cfg.Workload.Benchmarks)
	if nCores == 0 {
		return nil, fmt.Errorf("sim: workload %q has no benchmarks", cfg.Workload.Name)
	}

	tp := timing.DDR3(timing.Config{
		Density:   cfg.Density,
		Retention: cfg.Retention,
		Mode:      cfg.Mechanism.RefMode(),
	})
	if cfg.AdjustTiming != nil {
		cfg.AdjustTiming(&tp)
	}
	geom := dram.Default()
	geom.SubarraysPerBank = cfg.SubarraysPerBank

	s := &System{cfg: cfg, tp: tp, geom: geom,
		mapper:   sched.Mapper{Channels: cfg.Channels, Geom: geom},
		snapRest: nCores * 2048}

	schedCfg := cfg.Sched
	schedCfg.OpenRow = cfg.OpenRow
	for ch := 0; ch < cfg.Channels; ch++ {
		dev, err := dram.New(geom, tp, dram.Options{SARP: cfg.Mechanism.SARP(), Check: cfg.Check})
		if err != nil {
			return nil, err
		}
		ctrl := sched.NewController(dev, schedCfg)
		seed := cfg.Seed*7919 + int64(ch)
		if cfg.Policy != nil {
			ctrl.SetPolicy(cfg.Policy(ctrl, seed))
		} else {
			ctrl.SetPolicy(core.New(cfg.Mechanism, ctrl, seed))
		}
		s.devs = append(s.devs, dev)
		s.ctrls = append(s.ctrls, ctrl)
	}

	for i, prof := range cfg.Workload.Benchmarks {
		port := &memPort{sys: s, core: i}
		slice := cache.NewSlice(cfg.Cache, port)
		gen := trace.New(prof, cfg.Seed*1_000_003+int64(i))
		c := cpu.New(i, cfg.CPU, gen, prof.MaxOutstanding, uint64(i+1)*coreBaseStride, slice)
		if cfg.Engine == EngineEvent {
			c.SetHorizon(&s.horizon)
		}
		s.slices = append(s.slices, slice)
		s.cores = append(s.cores, c)
	}
	return s, nil
}

// memPort adapts a cache slice to one controller per channel.
type memPort struct {
	sys  *System
	core int
}

// ReadLine implements cache.Backend.
func (p *memPort) ReadLine(addr uint64, onDone func(now int64)) bool {
	s := p.sys
	ch, da := s.mapper.Map(addr)
	s.nextID++
	req := s.ctrls[ch].NewRequest()
	req.ID, req.Core, req.Addr, req.OnComplete = s.nextID, p.core, da, onDone
	req.Tag = addr // pre-mapping address: snapshots re-link onDone through it
	return s.ctrls[ch].EnqueueRead(req, s.now)
}

// WriteLine implements cache.Backend.
func (p *memPort) WriteLine(addr uint64) bool {
	s := p.sys
	ch, da := s.mapper.Map(addr)
	s.nextID++
	req := s.ctrls[ch].NewRequest()
	req.ID, req.Core, req.IsWrite, req.Addr = s.nextID, p.core, true, da
	return s.ctrls[ch].EnqueueWrite(req, s.now)
}

// Step advances the whole system one DRAM cycle. Every component ticks;
// under EngineEvent a core's Tick returns untouched when it has no event
// (its lazy clock defers the cycle), so Step never replays a core's
// accounting.
func (s *System) Step() {
	t := s.now
	for _, sl := range s.slices {
		sl.Tick(t)
	}
	for _, c := range s.cores {
		c.Tick(t)
	}
	s.horizon = t + 1
	for _, ctrl := range s.ctrls {
		ctrl.Tick(t)
	}
	s.now++
	s.stepped++
}

// NextEvent returns the earliest cycle in [s.Now(), limit] at which any
// component's Tick could do something beyond the linear accounting its Skip
// replays. If the answer exceeds s.Now(), every cycle before it is provably
// eventless: no core can retire, issue, or receive data, no cache slice has
// a delivery or retry due, no controller can issue a demand command or
// complete a read, and no refresh policy can act — so the whole window can
// be skipped without changing a single observable bit.
func (s *System) NextEvent(limit int64) int64 {
	switch s.hotKind {
	case hotCore:
		if s.cores[s.hotIdx].NextEvent(s.now) <= s.now {
			return s.now
		}
	case hotSlice:
		if s.slices[s.hotIdx].NextEvent(s.now) <= s.now {
			return s.now
		}
	case hotCtrl:
		if s.ctrls[s.hotIdx].NextEvent(s.now) <= s.now {
			return s.now
		}
	}
	t := limit
	for i, c := range s.cores {
		if e := c.NextEvent(s.now); e < t {
			if e <= s.now {
				s.hotKind, s.hotIdx = hotCore, i
				return s.now
			}
			t = e
		}
	}
	for i, sl := range s.slices {
		if e := sl.NextEvent(s.now); e < t {
			if e <= s.now {
				s.hotKind, s.hotIdx = hotSlice, i
				return s.now
			}
			t = e
		}
	}
	for i, ctrl := range s.ctrls {
		if e := ctrl.NextEvent(s.now); e < t {
			if e <= s.now {
				s.hotKind, s.hotIdx = hotCtrl, i
				return s.now
			}
			t = e
		}
	}
	if t < s.now {
		t = s.now
	}
	return t
}

// SkipTo advances the clock to cycle t (> s.Now()) without ticking. The
// controllers replay their per-cycle accounting for the elided window
// here; the cores do not need it, since the horizon moves to t with the
// clock and each core replays the window when it is next touched. The
// caller must have established via NextEvent that the window [now, t) is
// eventless.
func (s *System) SkipTo(t int64) {
	if t <= s.now {
		return
	}
	for _, ctrl := range s.ctrls {
		ctrl.Skip(s.now, t)
	}
	s.now, s.horizon = t, t
}

// stepSelective advances one DRAM cycle ticking only the components that
// have an event at it. A controller without one gets its elided Tick
// replayed by Skip; a core without one is not touched at all (its lazy
// clock defers the cycle). Each phase evaluates NextEvent at its own
// position in the cycle, so a component's decision sees exactly the state
// its Tick would have seen in the plain stepper: a slice decides from
// top-of-cycle state, a core sees hit callbacks the slice phase just
// delivered, a controller sees the enqueues the core phase just made (and
// completion callbacks an earlier controller's tick routed across
// channels). It returns the number of Ticks it avoided — zero means the
// cycle was saturated and selectivity bought nothing.
func (s *System) stepSelective() int {
	t := s.now
	avoided := 0
	for _, sl := range s.slices {
		if sl.NextEvent(t) <= t {
			sl.Tick(t)
		}
	}
	for _, c := range s.cores {
		if e := c.NextEvent(t); e <= t {
			c.Tick(t)
		} else if e != math.MaxInt64 {
			// A compute-bursting core's Tick (CPUPerDRAM full retire/
			// dispatch rounds) was avoided. A stalled core (MaxInt64) is
			// not counted: the count steers the saturation fallback, so
			// this rule is part of the SteppedCycles that results and
			// snapshots pin.
			avoided++
		}
	}
	s.horizon = t + 1
	for _, ctrl := range s.ctrls {
		if ctrl.NextEvent(t) <= t {
			ctrl.Tick(t)
		} else {
			ctrl.Skip(t, t+1)
			avoided++
		}
	}
	s.now++
	s.stepped++
	return avoided
}

// Saturation fallback parameters. A skip of at least worthwhileSkip cycles
// is what actually pays for the engine's scanning; when none has appeared
// for saturatedAfter consecutive stepped cycles — and the selective steps
// in between are not avoiding any expensive Ticks either — the engine runs
// blindWindow plain Steps with no scanning at all, then probes again.
// Plain stepping is the reference behavior, so the fallback is exact by
// construction; it only defers the detection of the next skippable window
// by at most blindWindow cycles. (A stickier fallback — growing the window
// while probes come up dry — was measured and rejected: even all-intensive
// DSARP runs keep ~10% of cycles skippable in short bursts, and losing
// them costs more than the per-cycle scans save.)
const (
	worthwhileSkip = 4
	saturatedAfter = 48
	blindWindow    = 32
)

// ErrInterrupted is returned by Run when Config.Stop flips true before
// the measurement window completes: the simulation was cut off by a
// watchdog (or a shutdown) and produced no result.
var ErrInterrupted = errors.New("sim: run interrupted")

// stopPollEvery spaces out Stop polls: one atomic load per this many run
// loop iterations, so the abort check is invisible in benchmarks while a
// wedged simulation still notices its watchdog within microseconds.
const stopPollEvery = 4096

// stopped reports whether a cooperative abort was requested.
func (s *System) stopped() bool {
	return s.cfg.Stop != nil && s.cfg.Stop.Load()
}

// RunTo advances the system to cycle end under the configured engine,
// returning early (with s.now < end) if Config.Stop flips true. The
// engine state lives on the System (loopSat/loopBlind/landing): it is
// zeroed on entry unless a snapshot restore armed keepLoop, in which case
// the restored values carry the interrupted run's engine position
// forward, including a pending landing step. Where a run stops does not
// change its decisions on the way there, so a snapshot taken at end
// continues exactly like a run that was never stopped.
func (s *System) RunTo(end int64) {
	if s.keepLoop {
		s.keepLoop = false
	} else {
		s.loopSat, s.loopBlind, s.landing = 0, 0, false
	}
	landing := s.landing
	s.landing = false
	poll := 0
	checkStop := func() bool {
		if poll++; poll < stopPollEvery {
			return false
		}
		poll = 0
		return s.stopped()
	}
	if s.cfg.Engine == EngineCycle {
		for s.now < end {
			s.maybeCheckpoint()
			s.Step()
			if checkStop() {
				return
			}
		}
		return
	}
	if landing && s.now < end {
		// Resumed from a snapshot taken on a skip's landing cycle: finish
		// the landing step the interrupted run was about to take.
		s.stepSelective()
	}
	for s.now < end {
		if checkStop() {
			return
		}
		if s.loopBlind > 0 {
			// Saturation fallback: run the rest of the blind window as plain
			// Steps with no scanning. Resumable — a snapshot mid-window
			// restores loopBlind and re-enters here.
			for s.loopBlind > 0 && s.now < end {
				s.maybeCheckpoint()
				s.Step()
				s.loopBlind--
			}
			continue
		}
		// The probe looks worthwhileSkip cycles past end, so the saturation
		// reset is decided on the skip's full length, not on the part of it
		// before end: a run that stops at end and one that goes on make the
		// same decision. It is decided BEFORE skipTo splits the skip at
		// checkpoint boundaries for the same reason.
		if t := s.NextEvent(end + worthwhileSkip); t > s.now {
			if t-s.now >= worthwhileSkip {
				s.loopSat = 0
			}
			s.skipTo(min(t, end))
			switch {
			case t < end:
				// The skip landed on the window's bounding event; step it
				// without paying for a scan that would just confirm it.
				s.landing = true
				s.maybeCheckpoint()
				s.landing = false
				s.stepSelective()
			case t == end:
				// It landed on an event at end: leave the landing step to
				// whatever continues this machine.
				s.landing = true
			}
			continue
		}
		s.maybeCheckpoint()
		if s.stepSelective() == 0 {
			s.loopSat += 4 // nothing avoided at all: saturate faster
		} else {
			s.loopSat++
		}
		if s.loopSat >= saturatedAfter {
			// Arm the blind window; stay wary until a real skip lands. The
			// counter is set before the window runs (it is not consulted
			// inside it), so a snapshot taken mid-window carries the value
			// the old post-window assignment would have produced.
			s.loopSat = saturatedAfter / 2
			s.loopBlind = blindWindow
		}
	}
}

// maybeCheckpoint captures a snapshot when the clock sits exactly on the
// next scheduled checkpoint boundary. Callers invoke it immediately before
// every clock advance, so the snapshot always reflects the state at the
// top of cycle ckptNext. Two compares when no schedule is armed.
func (s *System) maybeCheckpoint() {
	if s.ckptSink == nil || s.now != s.ckptNext {
		return
	}
	s.ckptSink(s.now, s.Snapshot())
	s.ckptNext += s.ckptEvery
}

// skipTo is SkipTo with checkpoint-boundary splitting: a skip that would
// jump over a scheduled checkpoint cycle is split so the snapshot is
// captured with the clock exactly on the boundary. The split is invisible
// to the machine (SkipTo composes) and to the engine (RunTo decides the
// saturation reset on the unsplit length).
func (s *System) skipTo(t int64) {
	for s.ckptSink != nil && s.ckptNext < t && s.ckptNext >= s.now {
		if s.ckptNext > s.now {
			s.SkipTo(s.ckptNext)
		}
		s.maybeCheckpoint()
	}
	s.SkipTo(t)
}

// Now returns the current DRAM cycle.
func (s *System) Now() int64 { return s.now }

// SteppedCycles returns how many cycles the engine actually ticked; the
// difference to Now() is the cycles the event engine skipped.
func (s *System) SteppedCycles() int64 { return s.stepped }

type snapshot struct {
	cores []cpu.Stats
	cache []cache.Stats
	dram  dram.Stats
	sched sched.Stats
}

func (s *System) snap() snapshot {
	sn := snapshot{}
	for _, c := range s.cores {
		sn.cores = append(sn.cores, c.Stats())
	}
	for _, sl := range s.slices {
		sn.cache = append(sn.cache, sl.Stats())
	}
	for _, d := range s.devs {
		stats.Add(&sn.dram, d.Stats())
	}
	for _, c := range s.ctrls {
		stats.Add(&sn.sched, c.Stats())
	}
	// Every stored result and window baseline carries 0 for this counter
	// (a known reporting defect). Keep those bytes until the next
	// exp.SchemaVersion bump, which deletes this line.
	sn.sched.OpportunisticDrain = 0
	return sn
}

// beginMeasure records the measurement baseline at the warmup boundary;
// result() subtracts it. The baseline travels inside snapshots so a
// resumed run windows its Result identically to the cold run.
func (s *System) beginMeasure() {
	s.start = s.snap()
	s.startStepped = s.stepped
	s.inMeasure = true
}

// result assembles the windowed Result; beginMeasure must have run and the
// clock must stand at the end of the measurement window.
func (s *System) result() Result {
	cfg := s.cfg
	end := s.snap()
	res := Result{
		Mechanism:      s.ctrls[0].Policy().Name(),
		Workload:       cfg.Workload.Name,
		DRAM:           stats.Sub(end.dram, s.start.dram),
		Sched:          stats.Sub(end.sched, s.start.sched),
		MeasuredCycles: cfg.Measure,
		SteppedCycles:  s.stepped - s.startStepped,
	}
	for i := range s.cores {
		cs := stats.Sub(end.cores[i], s.start.cores[i])
		cc := stats.Sub(end.cache[i], s.start.cache[i])
		res.Cores = append(res.Cores, cs)
		res.IPC = append(res.IPC, cs.IPC())
		res.Cache = append(res.Cache, cc)
		res.MPKI = append(res.MPKI, mpki(cc, cs))
	}

	res.Energy = power.Default().Compute(res.DRAM, s.tp, cfg.Measure, s.geom.Ranks*cfg.Channels)
	if cfg.Check {
		for _, d := range s.devs {
			if ck := d.Checker(); ck != nil && ck.Err() != nil {
				res.CheckErr = ck.Err()
				break
			}
		}
	}
	return res
}

// mpki is LLC misses per kilo-instruction; 0 for a core that retired
// nothing.
func mpki(cc cache.Stats, cs cpu.Stats) float64 {
	if cs.Retired == 0 {
		return 0
	}
	return float64(cc.Misses) / float64(cs.Retired) * 1000
}

// Run executes warmup + measurement and returns the windowed result. If
// Config.Stop flips true before the measurement window completes, Run
// returns ErrInterrupted and no Result.
func Run(cfg Config) (Result, error) {
	res, _, err := RunWithCheckpoints(cfg, 0, nil)
	return res, err
}

// Checkpointer receives snapshots as a run crosses checkpoint boundaries.
// The data is a self-contained snap container (see System.Snapshot); cycle
// is the DRAM cycle the snapshot's clock stands at.
type Checkpointer func(cycle int64, data []byte)

// RunWithCheckpoints is Run with resumable checkpoints: after a cold
// warmup it hands sink the warmup-boundary snapshot, then — if every > 0 —
// further snapshots at cycles Warmup + k*every inside the measurement
// window, its last cycle included, so a longer-Measure run of the same
// config can resume where this one ended. The window-end snapshot is not
// taken on the caller's path: it comes back as tail, a deferred step that
// hands it to sink. The machine is never touched again once its Result
// exists, so tail may run on any goroutine, after the Result is used;
// tail is nil when the last cycle is off the grid (every does not divide
// Measure). A checkpointed run's Result is bit-identical to the plain
// run's, SteppedCycles included. A checked config with a sink is refused:
// the protocol checker's state does not serialize.
func RunWithCheckpoints(cfg Config, every int64, sink Checkpointer) (res Result, tail func(), err error) {
	cfg = cfg.WithDefaults()
	if sink != nil && cfg.Check {
		return Result{}, nil, errCheckedSnapshot
	}
	s, err := NewSystem(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	s.RunTo(cfg.Warmup)
	if s.now < cfg.Warmup {
		return Result{}, nil, ErrInterrupted
	}
	s.beginMeasure()
	if sink != nil {
		// The warmup-boundary snapshot. Engine state is zeroed exactly as
		// the measurement RunTo below zeroes it on entry, so a run resumed
		// from this snapshot replays the same engine decisions.
		s.loopSat, s.loopBlind, s.landing = 0, 0, false
		sink(s.now, s.Snapshot())
		s.armCheckpoints(every, sink)
	}
	return s.finish()
}

// ResumeRun continues a run from a snapshot taken by a checkpointed run of
// a config identical up to Measure (the snapshot is agnostic to the
// measurement length, enabling measure-extension reuse): one at any cycle
// of this config's measurement window, its last cycle included. The
// resumed run's Result is bit-identical to an uninterrupted run's.
// every/sink arm further checkpoints, and tail is returned, exactly as
// RunWithCheckpoints would.
func ResumeRun(cfg Config, data []byte, every int64, sink Checkpointer) (res Result, tail func(), err error) {
	cfg = cfg.WithDefaults()
	s, err := RestoreSystem(cfg, data)
	if err != nil {
		return Result{}, nil, err
	}
	end := cfg.Warmup + cfg.Measure
	if !s.inMeasure || s.now < cfg.Warmup || s.now > end {
		return Result{}, nil, fmt.Errorf("sim: snapshot at cycle %d outside measurement window [%d, %d]",
			s.now, cfg.Warmup, end)
	}
	s.armCheckpoints(every, sink)
	return s.finish()
}

// finish runs the measurement window to its end and returns the Result
// and, when a checkpoint is scheduled on the window's last cycle, the
// deferred step that snapshots the finished machine into the sink.
func (s *System) finish() (Result, func(), error) {
	end := s.cfg.Warmup + s.cfg.Measure
	s.RunTo(end)
	if s.now < end {
		return Result{}, nil, ErrInterrupted
	}
	res := s.result()
	if s.ckptSink == nil || s.ckptNext != end {
		return res, nil, nil
	}
	return res, func() { s.ckptSink(end, s.Snapshot()) }, nil
}

// armCheckpoints schedules periodic snapshots at cycles Warmup + k*every
// for k >= 1 up to the window's last cycle, starting after the current
// clock. The schedule is identical whether armed at the warmup boundary
// or on resume from any checkpoint, so cold and resumed runs write the
// same snapshot set.
func (s *System) armCheckpoints(every int64, sink Checkpointer) {
	if sink == nil || every <= 0 {
		return
	}
	end := s.cfg.Warmup + s.cfg.Measure
	k := (s.now-s.cfg.Warmup)/every + 1
	next := s.cfg.Warmup + k*every
	if next > end {
		return
	}
	s.ckptEvery, s.ckptNext, s.ckptSink = every, next, sink
}
