package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"dsarp/internal/exp"
	"dsarp/internal/sim"
)

// pinSet is the expected digests of one plan's three spec lists.
type pinSet struct {
	Batch  string `json:"batch,omitempty"`
	Cold   string `json:"cold"`
	Extend string `json:"extend"`
}

// pinTable is the content of pins.json: digests per workload, valid for
// one simulator schema generation.
type pinTable struct {
	Schema  string            `json:"schema"`
	Digests map[string]pinSet `json:"digests"`
}

//go:embed pins.json
var pinsJSON []byte

// embeddedPins returns the pin table compiled into the binary.
func embeddedPins() (pinTable, error) {
	var t pinTable
	if err := json.Unmarshal(pinsJSON, &t); err != nil {
		return t, fmt.Errorf("pins.json: %w", err)
	}
	return t, nil
}

// lookup returns the expected digests for a plan.
func (t pinTable) lookup(p *plan) (pinSet, error) {
	if t.Schema != exp.SchemaVersion {
		return pinSet{}, fmt.Errorf("pins are for schema %q, simulator is %q; regenerate with -pin", t.Schema, exp.SchemaVersion)
	}
	ps, ok := t.Digests[p.w.name]
	if !ok {
		return pinSet{}, fmt.Errorf("no pinned digest for %s; regenerate with -pin", p.w.name)
	}
	return ps, nil
}

// digest hashes encoded results in spec order. Each entry is
// length-prefixed so boundaries cannot shift between results.
func digest(encoded [][]byte) string {
	h := sha256.New()
	for _, e := range encoded {
		fmt.Fprintf(h, "%d:", len(e))
		h.Write(e)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// encodeAll applies exp.EncodeResult to every result.
func encodeAll(results []sim.Result) ([][]byte, error) {
	out := make([][]byte, len(results))
	for i, r := range results {
		b, err := exp.EncodeResult(r)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// computePins simulates every spec list of every workload through a plain
// store-less runner, with no service and no checkpoints, and returns their
// digests. The service path must reproduce them byte for byte: extend
// results resume from checkpoints there. Each workload's DSARP metrics are
// logged.
func computePins(ws []benchWorkload, log io.Writer) (pinTable, error) {
	t := pinTable{Schema: exp.SchemaVersion, Digests: map[string]pinSet{}}
	for _, w := range ws {
		p := newPlan(w, 0)
		var ps pinSet
		var computeSpecs []exp.SimSpec
		var computeResults []sim.Result
		for _, list := range []struct {
			specs []exp.SimSpec
			dst   *string
		}{{p.batch, &ps.Batch}, {p.cold, &ps.Cold}, {p.extend, &ps.Extend}} {
			if len(list.specs) == 0 {
				continue
			}
			results, err := runAll(exp.NewRunner(exp.Options{Parallelism: workers}), list.specs)
			if err != nil {
				return t, err
			}
			enc, err := encodeAll(results)
			if err != nil {
				return t, err
			}
			*list.dst = digest(enc)
			if computeSpecs == nil {
				computeSpecs, computeResults = list.specs, results
			}
		}
		ab, pb, no := dsarpMetrics(computeSpecs, computeResults)
		fmt.Fprintf(log, "%s: DSARP sum-IPC is %.2f%% of REFab's, %.2f%% of REFpb's, %.2f%% of NoREF's\n", w.name, ab, pb, no)
		t.Digests[w.name] = ps
	}
	return t, nil
}

// runAll computes specs in order on the runner's worker pool.
func runAll(r *exp.Runner, specs []exp.SimSpec) ([]sim.Result, error) {
	prepared := make([]exp.SimSpec, len(specs))
	for i, s := range specs {
		ps, err := r.PrepareSpec(s)
		if err != nil {
			return nil, err
		}
		prepared[i] = ps
	}
	res, ok := r.RunAll(prepared)
	if !ok {
		return nil, fmt.Errorf("runner interrupted")
	}
	out := make([]sim.Result, len(prepared))
	for i, s := range prepared {
		out[i] = res[s.Key()]
	}
	return out, nil
}

// writePins regenerates the pin table and writes it to path.
func writePins(path string, log io.Writer) error {
	t, err := computePins(workloads(), log)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
