// Command experiments regenerates the tables and figures of Chang et al.,
// HPCA 2014. The experiment set is the exp package's declarative registry;
// -list prints it.
//
// Usage:
//
//	experiments [-list] [-run all|name[,name...]]
//	            [-scale default|paper] [-percat N] [-sensitivity N]
//	            [-warmup N] [-measure N] [-seed N] [-engine event|cycle]
//	            [-parallel N] [-store DIR] [-store-max-mb N] [-csv DIR]
//	            [-cpuprofile F] [-memprofile F] [-v]
//
// -run selects experiments by registry name; the default runs everything
// in registry order. An unknown name exits with status 2 before any
// simulation starts. The scale, seed, engine and store flags are the ones
// dsarpd and fleet take (exp.Flags), so the same flags render the same
// table there; a negative value of any numeric flag exits with status 2
// naming it.
//
// With -store, every completed simulation is persisted to a
// content-addressed result store as it finishes, and consulted before
// simulating: re-running the same experiments against a warm store costs
// no simulation time, and an interrupted sweep resumes where it stopped.
// -list reports, per experiment, how many of its simulations are already
// warm in the store — a cheap resume/progress probe. SIGINT stops
// gracefully — in-flight simulations finish and reach the store before the
// process exits with status 130.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/store"
)

func main() {
	// All work happens in mainImpl so its deferred profile teardown runs
	// before the process exits, on every path.
	os.Exit(mainImpl())
}

func mainImpl() int {
	var (
		run      = flag.String("run", "all", "experiments to run (comma-separated registry names), or 'all'")
		list     = flag.Bool("list", false, "list registry experiments with spec counts (and store warm status with -store), then exit")
		parallel = flag.Int("parallel", 0, "concurrent simulations (0 = one per CPU, 1 = serial)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		verbose  = flag.Bool("v", false, "print per-simulation progress")
		csvDir   = flag.String("csv", "", "also write each experiment's data series to this directory as CSV")
	)
	shared := exp.RegisterFlags(flag.CommandLine, "")
	flag.Parse()

	selected, err := selectExperiments(*run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v; -list shows the registry\n", err)
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "-parallel %d: must not be negative\n", *parallel)
		return 2
	}
	opts, err := shared.Options()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	opts.Parallelism = *parallel
	if opts.Store, err = shared.OpenStore(store.Options{}); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 1
	}
	if opts.Store != nil {
		if s := opts.Store.Stats(); s.Expired > 0 {
			fmt.Fprintf(os.Stderr, "store: swept %d old-schema entries (%d bytes reclaimed)\n",
				s.Expired, s.ExpiredBytes)
		}
	}
	if *verbose {
		opts.Progress = func(done int, label string) {
			fmt.Fprintf(os.Stderr, "[%4d] %s\n", done, label)
		}
	}

	r := exp.NewRunner(opts)

	if *list {
		listExperiments(r)
		return 0
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	// First SIGINT: stop scheduling new simulations; the ones in flight
	// finish and reach the store, so a rerun with the same -store resumes
	// instead of restarting. Second SIGINT: exit immediately (completed
	// store writes are atomic and survive).
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "interrupt: finishing in-flight simulations (^C again to abort)")
		r.Interrupt()
		<-sigc
		os.Exit(130)
	}()

	for _, e := range selected {
		start := time.Now()
		res, err := r.RunExperiment(e.Name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			return 1
		}
		if r.Interrupted() {
			// The run stopped before every simulation completed; no table
			// was assembled. Report what was saved instead.
			fmt.Fprintf(os.Stderr, "interrupted during %s: %d simulations completed", e.Name, r.SimsRun())
			if opts.Store != nil {
				fmt.Fprintf(os.Stderr, ", flushed to %s — rerun with the same -store to resume", opts.Store.Dir())
			}
			fmt.Fprintln(os.Stderr)
			return 130
		}
		fmt.Println(res.String())
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, e.Name, res); err != nil {
				fmt.Fprintf(os.Stderr, "csv export of %s failed: %v\n", e.Name, err)
			}
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "%s took %v\n", e.Name, time.Since(start).Round(time.Millisecond))
		}
	}
	return 0
}

// selectExperiments resolves a -run list (comma-separated, case- and
// space-insensitive) to registry entries in registry order; "all" selects
// every entry. The first name that is neither "all" nor in the registry is
// an error naming it.
func selectExperiments(run string) ([]exp.Experiment, error) {
	selected := map[string]bool{}
	for _, name := range strings.Split(run, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if _, ok := exp.LookupExperiment(name); !ok && name != "all" {
			return nil, fmt.Errorf("unknown experiment %q in -run %q", name, run)
		}
		selected[name] = true
	}
	var out []exp.Experiment
	for _, e := range exp.Experiments() {
		if selected["all"] || selected[e.Name] {
			out = append(out, e)
		}
	}
	return out, nil
}

// listExperiments prints the registry: names, titles, spec counts, and —
// when a store is configured — how much of each experiment is already
// warm, making -list a cheap resume/progress probe for long sweeps.
func listExperiments(r *exp.Runner) {
	st := r.Options().Store
	for _, e := range exp.Experiments() {
		n := len(e.Specs(r))
		line := fmt.Sprintf("%-10s %4d specs", e.Name, n)
		if st != nil {
			warm := r.WarmCount(e)
			pct := 0.0
			if n > 0 {
				pct = 100 * float64(warm) / float64(n)
			}
			line += fmt.Sprintf(", %4d warm (%3.0f%%)", warm, pct)
		}
		fmt.Printf("%s  %s\n", line, e.Title)
	}
}

// writeCSVs exports any experiment result that carries exportable series.
func writeCSVs(dir, name string, res fmt.Stringer) error {
	if m, ok := res.(exp.MultiCSV); ok {
		for i, sub := range m.CSVParts() {
			if err := exp.WriteCSV(dir, fmt.Sprintf("%s_%d", name, i), sub); err != nil {
				return err
			}
		}
		return nil
	}
	if w, ok := res.(exp.CSVWritable); ok {
		return exp.WriteCSV(dir, name, w)
	}
	return nil
}
