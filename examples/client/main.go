// Command client demonstrates the dsarpd HTTP API: it submits a small
// sweep (the Table 2 task set at a reduced scale), follows the job's SSE
// progress stream, and prints per-task outcomes — showing which results
// were freshly computed and which came from the server's content-addressed
// store. Run it twice against the same server to watch the second sweep
// complete without a single simulation.
//
//	dsarpd &                      # terminal 1
//	go run ./examples/client      # terminal 2, twice
//
// To reproduce a whole registry experiment across several dsarpd workers,
// use cmd/fleet.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	"dsarp/internal/exp"
	"dsarp/internal/timing"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "dsarpd base URL")
	n := flag.Int("n", 0, "submit only the first n specs (0 = all)")
	flag.Parse()

	if err := sweepDemo(*addr, *n); err != nil {
		fmt.Fprintf(os.Stderr, "client: %v\n", err)
		os.Exit(1)
	}
}

// demoOpts is the reduced scale the sweep enumerates at. The runner built
// from it is used only for spec enumeration — every simulation happens
// server-side. Specs are fully resolved, so the server honors this scale
// regardless of its own -warmup/-measure defaults.
func demoOpts() exp.Options {
	opts := exp.Defaults()
	opts.PerCategory = 1
	opts.Cores = 2
	opts.Warmup = 5_000
	opts.Measure = 20_000
	opts.Densities = []timing.Density{timing.Gb8}
	return opts
}

// sweepDemo submits one sweep and follows its SSE progress.
func sweepDemo(addr string, n int) error {
	table2, _ := exp.LookupExperiment("table2")
	specs := table2.Specs(exp.NewRunner(demoOpts()))
	if n > 0 && n < len(specs) {
		specs = specs[:n]
	}

	body, err := json.Marshal(map[string]any{"name": "example-table2", "specs": specs})
	if err != nil {
		return err
	}
	resp, err := http.Post(addr+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := readAll(resp)
		return fmt.Errorf("sweep rejected: %s: %s", resp.Status, msg)
	}
	var sweep struct {
		ID        string `json:"id"`
		Total     int    `json:"total"`
		EventsURL string `json:"events_url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sweep); err != nil {
		return err
	}
	fmt.Printf("job %s accepted: %d tasks\n", sweep.ID, sweep.Total)

	// Follow the SSE progress stream until the job's done event.
	events, err := http.Get(addr + sweep.EventsURL)
	if err != nil {
		return err
	}
	defer events.Body.Close()
	if events.StatusCode != http.StatusOK {
		msg, _ := readAll(events)
		return fmt.Errorf("event stream: %s: %s", events.Status, msg)
	}
	computed, cached := 0, 0
	sc := bufio.NewScanner(events.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Type   string `json:"type"`
			Label  string `json:"label"`
			Source string `json:"source"`
			Error  string `json:"error"`
			Done   int    `json:"done"`
			Total  int    `json:"total"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return err
		}
		if ev.Type == "done" {
			break
		}
		if ev.Error != "" {
			fmt.Printf("[%3d/%3d] FAILED %s: %s\n", ev.Done, ev.Total, ev.Label, ev.Error)
			continue
		}
		if ev.Source == "computed" {
			computed++
		} else {
			cached++
		}
		fmt.Printf("[%3d/%3d] %-8s %s\n", ev.Done, ev.Total, ev.Source, ev.Label)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Printf("done: %d computed, %d served from cache\n", computed, cached)
	fmt.Printf("results: %s/v1/jobs/%s/results\n", addr, sweep.ID)
	return nil
}

func readAll(resp *http.Response) (string, error) {
	var b bytes.Buffer
	_, err := b.ReadFrom(resp.Body)
	return b.String(), err
}
