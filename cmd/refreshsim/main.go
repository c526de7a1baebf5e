// Command refreshsim runs one simulation of the DSARP system: a workload of
// synthetic benchmarks on the 8-core / 2-channel DDR3-1333 configuration of
// Chang et al. (HPCA 2014), under a chosen refresh mechanism.
//
// Examples:
//
//	refreshsim -mechanism DSARP -density 32
//	refreshsim -mechanism DSARP -density 8,16,32 -parallel 3
//	refreshsim -mechanism REFpb -workload stream.triad,rand.access,mcf.chase,libq.scan
//	refreshsim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"

	"dsarp/internal/core"
	"dsarp/internal/sim"
	"dsarp/internal/timing"
	"dsarp/internal/trace"
	"dsarp/internal/workload"
)

func main() {
	var (
		mech      = flag.String("mechanism", "DSARP", "refresh mechanism (see -list)")
		density   = flag.String("density", "32", "DRAM chip density in Gb (8, 16, 32); comma-separate for a sweep")
		retention = flag.Int("retention", 32, "retention time in ms (32 or 64)")
		benches   = flag.String("workload", "", "comma-separated benchmark names (default: a random intensive mix)")
		cores     = flag.Int("cores", 8, "core count when using a random mix")
		subarrays = flag.Int("subarrays", 8, "subarrays per bank")
		warmup    = flag.Int64("warmup", 50_000, "warmup DRAM cycles")
		measure   = flag.Int64("measure", 200_000, "measured DRAM cycles")
		seed      = flag.Int64("seed", 42, "simulation seed")
		parallel  = flag.Int("parallel", 0, "concurrent simulations in a density sweep (0 = one per CPU)")
		engine    = flag.String("engine", "event", "simulation engine: event (clock-skipping) or cycle (reference stepper); results are bit-identical")
		check     = flag.Bool("check", false, "attach the DRAM protocol checker")
		list      = flag.Bool("list", false, "list mechanisms and benchmarks, then exit")
	)
	flag.Parse()

	// sim.Config reads a zero as "use the default", so a zero or negative
	// value would run something other than what was asked for.
	for _, f := range []struct {
		name string
		v    int64
	}{{"cores", int64(*cores)}, {"subarrays", int64(*subarrays)}, {"warmup", *warmup}, {"measure", *measure}} {
		if f.v <= 0 {
			fatalf("-%s %d: must be positive", f.name, f.v)
		}
	}

	if *list {
		fmt.Println("mechanisms:")
		for _, k := range core.Kinds() {
			fmt.Printf("  %s\n", k)
		}
		fmt.Println("benchmarks (MPKI >= 10 is memory-intensive):")
		for _, p := range workload.Library() {
			fmt.Printf("  %-14s MPKI=%-5.4g %s footprint=%dKB\n",
				p.Name, p.MPKI, p.Pattern, p.FootprintBytes>>10)
		}
		return
	}

	kind, err := core.ParseKind(*mech)
	if err != nil {
		fatalf("%v (try -list)", err)
	}

	wl, err := buildWorkload(*benches, *cores, *seed)
	if err != nil {
		fatalf("%v", err)
	}

	densities, err := parseDensities(*density)
	if err != nil {
		fatalf("%v", err)
	}

	ret := timing.Retention(*retention)
	if ret != timing.Retention32ms && ret != timing.Retention64ms {
		fatalf("unknown retention %d ms (want 32 or 64)", *retention)
	}

	eng, err := sim.ParseEngine(*engine)
	if err != nil {
		fatalf("%v", err)
	}

	// Run the sweep on a bounded worker pool; reports print in flag order
	// regardless of completion order, and every simulation is independent,
	// so the output is identical to a serial sweep.
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(densities) {
		workers = len(densities)
	}
	results := make([]sim.Result, len(densities))
	errs := make([]error, len(densities))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(densities) {
					return
				}
				results[i], errs[i] = sim.Run(sim.Config{
					Workload:         wl,
					Mechanism:        kind,
					Density:          densities[i],
					Retention:        ret,
					SubarraysPerBank: *subarrays,
					Engine:           eng,
					Seed:             *seed,
					Warmup:           *warmup,
					Measure:          *measure,
					Check:            *check,
				})
			}
		}()
	}
	wg.Wait()

	for i, res := range results {
		if errs[i] != nil {
			fatalf("%v", errs[i])
		}
		if i > 0 {
			fmt.Println()
		}
		if len(densities) > 1 {
			fmt.Printf("=== density %s ===\n", densities[i])
		}
		report(wl, res)
		if res.CheckErr != nil {
			fatalf("protocol violations:\n%v", res.CheckErr)
		}
	}
}

// parseDensities parses the -density flag: one value or a comma-separated
// sweep.
func parseDensities(s string) ([]timing.Density, error) {
	var out []timing.Density
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-density %q: %v", part, err)
		}
		if n <= 0 {
			return nil, fmt.Errorf("-density %d: must be positive", n)
		}
		out = append(out, timing.Density(n))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no densities given")
	}
	return out, nil
}

func buildWorkload(names string, cores int, seed int64) (workload.Workload, error) {
	if names == "" {
		mixes := workload.IntensiveMixes(1, cores, seed)
		return mixes[0], nil
	}
	var profs []trace.Profile
	for _, name := range strings.Split(names, ",") {
		p, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return workload.Workload{}, err
		}
		profs = append(profs, p)
	}
	return workload.Workload{Name: "custom", Benchmarks: profs}, nil
}

func report(wl workload.Workload, res sim.Result) {
	fmt.Printf("workload %s under %s, %d DRAM cycles measured\n\n",
		wl.Name, res.Mechanism, res.MeasuredCycles)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "core\tbenchmark\tIPC\tMPKI\tloads\tstores")
	var sumIPC float64
	for i, b := range wl.Benchmarks {
		fmt.Fprintf(w, "%d\t%s\t%.3f\t%.1f\t%d\t%d\n",
			i, b.Name, res.IPC[i], res.MPKI[i], res.Cores[i].Loads, res.Cores[i].Stores)
		sumIPC += res.IPC[i]
	}
	w.Flush()

	fmt.Printf("\nsum IPC              %.3f\n", sumIPC)
	fmt.Printf("DRAM reads/writes    %d / %d\n", res.DRAM.Reads, res.DRAM.Writes)
	fmt.Printf("activates/precharges %d / %d\n", res.DRAM.Acts, res.DRAM.Pres)
	fmt.Printf("refreshes (ab/pb)    %d / %d\n", res.DRAM.RefABs, res.DRAM.RefPBs)
	fmt.Printf("avg read latency     %.1f DRAM cycles\n", res.Sched.AvgReadLatency())
	fmt.Printf("writeback-mode time  %.1f%%\n",
		100*float64(res.Sched.WriteModeCycles)/float64(2*res.MeasuredCycles))
	fmt.Printf("energy per access    %.2f nJ (refresh share %.1f%%)\n",
		res.EnergyPerAccess(), 100*res.Energy.Refresh/res.Energy.Total())
	fmt.Printf("engine skip rate     %.1f%% of cycles simulated\n", 100*res.SkipRate())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "refreshsim: "+format+"\n", args...)
	os.Exit(1)
}
