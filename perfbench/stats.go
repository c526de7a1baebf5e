package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/sim"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// minSamples is the smallest sample count percentile accepts for q.
func minSamples(q float64) int {
	return int(math.Ceil(minBeyond/(1-q) - 1e-9))
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses when fewer than minBeyond samples lie above that rank, because
// such a tail is a handful of outliers rather than a percentile.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v of %d samples", q, n)
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, beyond, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], nil
}

// median is the middle value of xs (mean of the middle two for even
// counts); it is for per-round aggregates, not latency samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// gmeanGainPct is the geometric mean of num[i]/den[i], minus one, in
// percent: the paper's "weighted improvement over the baseline".
func gmeanGainPct(num, den []float64) float64 {
	if len(num) == 0 || len(num) != len(den) {
		return math.NaN()
	}
	logSum := 0.0
	for i := range num {
		logSum += math.Log(num[i] / den[i])
	}
	return (math.Exp(logSum/float64(len(num))) - 1) * 100
}

// failedFrac is failed operations over attempted ones.
func failedFrac(failed, attempted int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

func sumIPC(r sim.Result) float64 {
	s := 0.0
	for _, v := range r.IPC {
		s += v
	}
	return s
}

// dsarpMetrics gives DSARP's sum-IPC as a percentage of REFab's, REFpb's
// and NoREF's (gmean over the mixes of specs/results, in any order;
// specs[i] produced results[i]). A ratio rather than a gain keeps each far
// from zero: DSARP can match NoREF, and so a gap to it can be 0 or below.
func dsarpMetrics(specs []exp.SimSpec, results []sim.Result) (vsAB, vsPB, vsNoRef float64) {
	byMix := map[string]map[string]float64{}
	var mixes []string
	for i, s := range specs {
		if byMix[s.Name] == nil {
			byMix[s.Name] = map[string]float64{}
			mixes = append(mixes, s.Name)
		}
		byMix[s.Name][s.Mechanism] = sumIPC(results[i])
	}
	sort.Strings(mixes)
	var ds, ab, pb, no []float64
	for _, m := range mixes {
		v := byMix[m]
		ds = append(ds, v["DSARP"])
		ab = append(ab, v["REFab"])
		pb = append(pb, v["REFpb"])
		no = append(no, v["NoREF"])
	}
	return 100 + gmeanGainPct(ds, ab), 100 + gmeanGainPct(ds, pb), 100 + gmeanGainPct(ds, no)
}

// simWork is the simulated work in results: DRAM cycles including warmup,
// and measure-window retired instructions.
func simWork(specs []exp.SimSpec, results []sim.Result) (cycles, insts float64) {
	for i, r := range results {
		cycles += float64(specs[i].Warmup + specs[i].Measure)
		for _, c := range r.Cores {
			insts += float64(c.Retired)
		}
	}
	return cycles, insts
}

// channels is the simulated channel count (sim.Config's default), which
// per-controller counters are summed over.
const channels = 2

// counterMetrics derives the simulated machine's per-layer rates from the
// public counters in results. They are deterministic for a given plan.
func counterMetrics(specs []exp.SimSpec, results []sim.Result) map[string]float64 {
	var stepped, measured, stall, cpuCycles, misses, accesses float64
	var wmCycles, refSlots, demSlots, rqFull, acts, colAccesses, energy float64
	latSum := map[string]float64{}
	latN := map[string]float64{}
	for i, r := range results {
		stepped += float64(r.SteppedCycles)
		measured += float64(r.MeasuredCycles)
		for _, c := range r.Cores {
			stall += float64(c.MemStallBeat)
			cpuCycles += float64(c.CPUCycles)
		}
		for _, c := range r.Cache {
			misses += float64(c.Misses)
			accesses += float64(c.Accesses)
		}
		s := r.Sched
		wmCycles += float64(s.WriteModeCycles)
		refSlots += float64(s.RefreshSlots)
		demSlots += float64(s.DemandSlots)
		rqFull += float64(s.ReadQueueFullStalls)
		latSum[specs[i].Mechanism] += float64(s.ReadLatencySum)
		latN[specs[i].Mechanism] += float64(s.ReadsServed)
		acts += float64(r.DRAM.Acts)
		colAccesses += float64(r.DRAM.Accesses())
		energy += r.Energy.Total()
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"sim.stepped_frac":            ratio(stepped, measured),
		"cpu.mem_stall_frac":          ratio(stall, cpuCycles),
		"cache.miss_rate":             ratio(misses, accesses),
		"sched.read_lat_refab_cycles": ratio(latSum["REFab"], latN["REFab"]),
		"sched.read_lat_dsarp_cycles": ratio(latSum["DSARP"], latN["DSARP"]),
		"sched.write_mode_frac":       ratio(wmCycles, measured*channels),
		"sched.refresh_slot_frac":     ratio(refSlots, refSlots+demSlots),
		"sched.readq_full_stalls":     rqFull,
		"dram.row_hit_rate":           math.Max(0, 1-ratio(acts, colAccesses)),
		"power.energy_per_access_nj":  ratio(energy, colAccesses),
	}
}
