// Command perfbench is the repository's benchmark. One invocation runs one
// named workload for a wall-clock budget, checks every simulation result
// against pinned digests, and prints as its last line a JSON object with
// the verdict and the metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1 (a CPU-profiled run plus timed calls
// into single layers).
//
// From the repository root, through the wrapper that builds it:
//
//	bash perfbench/run.sh --workload sat-read --seed 1 --seconds 20 --trace 0
//
// After a change that alters simulation output (an exp.SchemaVersion
// bump), regenerate the pinned digests from the repository root with
//
//	bash perfbench/run.sh -pin perfbench/pins.json
//
// README.md in this directory describes the workloads, the metrics, and
// which per-layer metric should move which end-to-end metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/sim"
)

// metricDef names a reported metric.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run, as a user sees the system.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"sim_mcycles_per_s", "Mcycles/s", "higher"},
	{"sim_minst_per_s", "Minst/s", "higher"},
	{"cold_p50_ms", "ms", "lower"},
	{"cold_p90_ms", "ms", "lower"},
	{"warm_p50_ms", "ms", "lower"},
	{"warm_p99_ms", "ms", "lower"},
	{"extend_p50_ms", "ms", "lower"},
	{"dsarp_vs_refab_pct", "%", "higher"},
	{"dsarp_vs_refpb_pct", "%", "higher"},
	{"dsarp_vs_noref_pct", "%", "higher"},
}

// perLayer are the metrics of a traced run.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range selfLayers {
		defs = append(defs, metricDef{l + ".self_pct", "%", "lower"})
	}
	return append(defs, []metricDef{
		{"exp.run_spec_ms_p50", "ms", "lower"},
		{"sim.new_system_ms", "ms", "lower"},
		{"sim.ns_per_stepped_cycle", "ns", "lower"},
		{"exp.encode_us", "us", "lower"},
		{"exp.decode_us", "us", "lower"},
		{"exp.result_bytes", "bytes", "lower"},
		{"store.get_us_p50", "us", "lower"},
		{"store.put_ms_p50", "ms", "lower"},
		{"snap.snapshot_ms", "ms", "lower"},
		{"snap.restore_ms", "ms", "lower"},
		{"snap.bytes", "bytes", "lower"},
		{"sim.stepped_frac", "ratio", "lower"},
		{"cpu.mem_stall_frac", "ratio", "lower"},
		{"cache.miss_rate", "ratio", "lower"},
		{"sched.read_lat_refab_cycles", "cycles", "lower"},
		{"sched.read_lat_dsarp_cycles", "cycles", "lower"},
		{"sched.write_mode_frac", "ratio", "lower"},
		{"sched.refresh_slot_frac", "ratio", "lower"},
		{"sched.readq_full_stalls", "count", "lower"},
		{"dram.row_hit_rate", "ratio", "higher"},
		{"power.energy_per_access_nj", "nJ", "lower"},
		{"runtime.allocs_per_sim", "count", "lower"},
		{"runtime.alloc_mb_per_sim", "MB", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"exp.sims_computed", "count", "higher"},
		{"exp.store_hits", "count", "higher"},
		{"exp.checkpoints_written", "count", "higher"},
		{"exp.checkpoints_restored", "count", "higher"},
		{"exp.resumed_cycles", "cycles", "higher"},
		{"store.entries", "count", "lower"},
		{"store.bytes", "bytes", "lower"},
		{"serve.refused", "count", "lower"},
		{"trace_overhead_pct", "%", "lower"},
	}...)
}()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: sat-read, sat-write, idle-skip or service")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 20, "measurement budget in seconds")
	trace := fl.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	pinOut := fl.String("pin", "", "recompute every pinned digest, write them to this file, and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *pinOut != "" {
		if err := writePins(*pinOut, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = errors.New("--seconds must be positive and --trace 0 or 1")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	pins, err := embeddedPins()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{
		w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, pins: pins, tmp: filepath.Join(".bench_build", "tmp"), log: stderr,
	}
	fmt.Fprintln(stdout, header(cfg))
	out, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, cfg, out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !out.correct {
		return 1
	}
	return 0
}

// header identifies a run, so two runs can be checked as a same-machine
// A/B of known code.
func header(cfg runConfig) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	trace := 0
	if cfg.traced {
		trace = 1
	}
	return fmt.Sprintf("# perfbench workload=%s seed=%d seconds=%.0f trace=%d commit=%s source=%s go=%s nproc=%d gomaxprocs=%d schema=%s",
		cfg.w.name, cfg.seed, cfg.budget.Seconds(), trace, commit, sourceDigest("."),
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), exp.SchemaVersion)
}

// sourceDigest hashes the Go sources and module files under root (hidden
// directories skipped), identifying the code a run measured even where
// there is no git metadata.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" || d.Name() == "pins.json") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runConfig is one invocation's settings.
type runConfig struct {
	w      benchWorkload
	seed   int64
	budget time.Duration
	traced bool
	pins   pinTable
	tmp    string
	log    io.Writer
}

// outcome is a finished run.
type outcome struct {
	correct           bool
	attempted, failed int
	rounds            int
	metrics           map[string]float64
}

// minCold is how many cold latencies cold_p90_ms pools. Every other
// percentile is taken within a round, whose sizes provide enough samples
// (TestRoundsHoldEnoughSamples).
var minCold = minSamples(0.9)

// execute runs rounds until the budget is spent and every percentile has
// enough samples, then derives the metrics. The first round is a warm-up:
// its results are checked like every other round's, but no timing comes
// from it. A round is not started when the previous one's duration says it
// would end past the budget, so a run takes about --seconds. A traced run
// alternates untraced and profiled rounds so it can report its own
// overhead.
func execute(cfg runConfig) (outcome, error) {
	var out outcome
	want, err := cfg.pins.lookup(newPlan(cfg.w, cfg.seed))
	if err != nil {
		return out, err
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return out, err
	}
	tmp, err := os.MkdirTemp(cfg.tmp, "run-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(tmp)

	prof := &profiler{buckets: map[string]int64{}}
	minRounds := 1 + 3
	if cfg.traced {
		minRounds = 1 + 4
	}
	hardStop := min(2*cfg.budget+20*time.Second, 150*time.Second)
	var rounds []*round
	ncold := 0
	var last time.Duration
	start := time.Now()
	for {
		el := time.Since(start)
		if len(rounds) >= minRounds && ncold >= minCold && el+last > cfg.budget {
			break
		}
		if el >= hardStop {
			out.failed++
			fmt.Fprintf(cfg.log, "perfbench: stopped after %v with %d rounds and %d cold samples\n", el, len(rounds), ncold)
			break
		}
		var p *profiler
		if cfg.traced && len(rounds)%2 == 1 {
			p = prof
		}
		t := time.Now()
		rd, err := runRound(cfg.w, cfg.seed, tmp, want, p)
		if err != nil {
			return out, err
		}
		last = time.Since(t)
		fmt.Fprintf(cfg.log, "perfbench: round %d: setup %.2fms (median of %d) wall %.3fs computing %.3fs reference kernel %.3fms traced=%v failed=%d\n",
			len(rounds), medianDur(rd.setups).Seconds()*1e3, len(rd.setups), rd.wall.Seconds(), rd.computeWall.Seconds(), refNominalMs/rd.roundScale(), rd.traced, rd.failed)
		for _, msg := range rd.problems {
			fmt.Fprintf(cfg.log, "perfbench: round %d: %s\n", len(rounds), msg)
		}
		out.attempted += rd.attempted
		out.failed += rd.failed
		if len(rounds) > 0 {
			ncold += len(rd.coldMs)
		}
		rounds = append(rounds, rd)
	}
	out.rounds = len(rounds)
	out.correct = out.failed == 0
	if cfg.traced {
		out.metrics, err = layerMetrics(cfg, rounds, prof.buckets, tmp)
	} else {
		out.metrics, err = endToEndMetrics(rounds)
	}
	return out, err
}

// timedRounds are the rounds timing metrics come from: all but the
// warm-up round.
func timedRounds(rounds []*round) []*round {
	if len(rounds) < 2 {
		return rounds
	}
	return rounds[1:]
}

// endToEndMetrics derives the untraced run's metrics. Every host time is
// converted to the nominal host speed with the scale of the round, or of
// the phase, it was measured in (see refspeed.go). Each timing is then a
// median over the timed rounds of that round's value, so a burst of
// contention that slows a few rounds does not move it. setup_s is the
// median of every timed round's set-ups, and cold_p90_ms pools the timed
// rounds' cold latencies, because a round holds too few for a p90.
func endToEndMetrics(rounds []*round) (map[string]float64, error) {
	m := map[string]float64{}
	timed := timedRounds(rounds)
	var setups, walls, cold []float64
	for _, rd := range timed {
		k := rd.roundScale()
		for _, d := range rd.setups {
			setups = append(setups, d.Seconds()*k)
		}
		walls = append(walls, rd.wall.Seconds()*k)
		for _, ms := range rd.coldMs {
			cold = append(cold, ms*rd.scale(phaseCold))
		}
	}
	m["setup_s"] = median(setups)
	m["wall_s"] = median(walls)
	m["peak_rss_mb"] = peakRSSMB()
	// Simulation throughput of the closed-loop caller, from each spec's
	// median latency over the rounds.
	r0 := rounds[0]
	busy := 0.0
	for i := range r0.computeSpecs {
		var xs []float64
		for _, rd := range timed {
			xs = append(xs, rd.computeMs[i]*rd.scale(rd.computePhase))
		}
		busy += median(xs) / 1e3
	}
	cyc, ins := simWork(r0.computeSpecs, r0.computeResults)
	m["sim_mcycles_per_s"] = cyc / busy / 1e6
	m["sim_minst_per_s"] = ins / busy / 1e6
	for _, pc := range []struct {
		name    string
		phase   int
		samples func(*round) []float64
		q       float64
	}{
		{"cold_p50_ms", phaseCold, func(rd *round) []float64 { return rd.coldMs }, 0.5},
		{"warm_p50_ms", phaseWarm, func(rd *round) []float64 { return rd.warmMs }, 0.5},
		{"warm_p99_ms", phaseWarm, func(rd *round) []float64 { return rd.warmMs }, 0.99},
		{"extend_p50_ms", phaseExtend, func(rd *round) []float64 { return rd.extendMs }, 0.5},
	} {
		var perRound []float64
		for _, rd := range timed {
			v, err := percentile(pc.samples(rd), pc.q)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", pc.name, err)
			}
			perRound = append(perRound, v*rd.scale(pc.phase))
		}
		m[pc.name] = median(perRound)
	}
	var err error
	if m["cold_p90_ms"], err = percentile(cold, 0.9); err != nil {
		return nil, fmt.Errorf("cold_p90_ms: %w", err)
	}
	m["dsarp_vs_refab_pct"], m["dsarp_vs_refpb_pct"], m["dsarp_vs_noref_pct"] =
		dsarpMetrics(r0.computeSpecs, r0.computeResults)
	return m, nil
}

// layerMetrics derives the traced run's metrics: self-time shares from the
// profiled rounds, counters from the first round's results and /metrics
// page, and timed calls into single layers.
func layerMetrics(cfg runConfig, rounds []*round, buckets map[string]int64, tmp string) (map[string]float64, error) {
	m := selfShares(buckets)
	r0 := rounds[0]
	for k, v := range counterMetrics(r0.computeSpecs, r0.computeResults) {
		m[k] = v
	}
	var allocs, allocMB, gcs, traced, untraced []float64
	for _, rd := range timedRounds(rounds) {
		n := float64(len(rd.computeResults))
		allocs = append(allocs, float64(rd.mallocs)/n)
		allocMB = append(allocMB, float64(rd.allocBytes)/n/1e6)
		gcs = append(gcs, float64(rd.gcs))
		if rd.traced {
			traced = append(traced, rd.wall.Seconds())
		} else {
			untraced = append(untraced, rd.wall.Seconds())
		}
	}
	m["runtime.allocs_per_sim"] = median(allocs)
	m["runtime.alloc_mb_per_sim"] = median(allocMB)
	m["runtime.gc_cycles"] = median(gcs)
	m["trace_overhead_pct"] = (median(traced)/median(untraced) - 1) * 100
	for name, series := range map[string]string{
		"exp.sims_computed":        "dsarp_sims_computed_total",
		"exp.store_hits":           "dsarp_store_hits_total",
		"exp.checkpoints_written":  "dsarp_checkpoints_written_total",
		"exp.checkpoints_restored": "dsarp_checkpoints_restored_total",
		"exp.resumed_cycles":       "dsarp_resume_cycle_sum",
		"store.entries":            "dsarp_store_entries",
		"store.bytes":              "dsarp_store_bytes",
		"serve.refused":            "dsarp_refused_total",
	} {
		m[name] = r0.scraped[series]
	}

	// The representative spec is the first DSARP spec of the computing
	// phase.
	var rep exp.SimSpec
	var res sim.Result
	for i, s := range r0.computeSpecs {
		if s.Mechanism == "DSARP" {
			rep, res = s, r0.computeResults[i]
			break
		}
	}
	probes, err := probeLayers(rep, res, tmp)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for k, v := range probes {
		m[k] = v
	}
	if len(cfg.w.batch) > 0 {
		var lat []float64
		for _, rd := range timedRounds(rounds) {
			if !rd.traced {
				lat = append(lat, rd.computeMs...)
			}
		}
		m["exp.run_spec_ms_p50"] = median(lat)
	} else {
		p := newPlan(cfg.w, cfg.seed)
		if m["exp.run_spec_ms_p50"], err = probeRunSpec(p.cold[:len(mechanisms)]); err != nil {
			return nil, fmt.Errorf("run-spec probe: %w", err)
		}
	}
	return m, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one human-readable line per metric, then the JSON result
// line. A metric that is not a finite number is an error.
func report(w io.Writer, cfg runConfig, out outcome) error {
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "# rounds=%d attempted=%d failed=%d failed_frac=%.6f correct=%v\n",
		out.rounds, out.attempted, out.failed, failedFrac(out.failed, out.attempted), out.correct)
	metrics := map[string]metricValue{}
	for _, d := range defs {
		v := out.metrics[d.name]
		fmt.Fprintf(w, "# %-30s %14.6g %-10s (%s is better)\n", d.name, v, d.unit, d.better)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = metricValue{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.correct, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
