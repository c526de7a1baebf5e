package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"dsarp/internal/exp"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		q    float64
		n    int
		want float64 // 0 means an error is expected
	}{
		{0.5, 19, 0}, {0.5, 20, 10},
		{0.9, 99, 0}, {0.9, 100, 90},
		{0.99, 999, 0}, {0.99, 1000, 990},
	} {
		got, err := percentile(seq(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%v of %d samples = %v, want an error", c.q*100, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%v of %d samples = %v, %v; want %v", c.q*100, c.n, got, err, c.want)
		}
	}
	for q, n := range map[float64]int{0.5: 20, 0.9: 100, 0.99: 1000} {
		if got := minSamples(q); got != n {
			t.Errorf("minSamples(%v) = %d, want %d", q, got, n)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestGmeanGain(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if got := gmeanGainPct([]float64{2, 1}, []float64{1, 2}); !near(got, 0) {
		t.Errorf("2x and 0.5x = %v%%, want 0", got)
	}
	if got := gmeanGainPct([]float64{1.1, 2.2}, []float64{1, 2}); !near(got, 10) {
		t.Errorf("uniform 1.1x = %v%%, want 10", got)
	}
	if got := gmeanGainPct([]float64{4, 1}, []float64{1, 1}); !near(got, 100) {
		t.Errorf("4x and 1x = %v%%, want 100", got)
	}
}

func TestFailedFrac(t *testing.T) {
	if got := failedFrac(3, 12); got != 0.25 {
		t.Errorf("failedFrac(3, 12) = %v", got)
	}
	if got := failedFrac(0, 0); got != 1 {
		t.Errorf("nothing attempted = %v, want 1", got)
	}
}

func TestLayerBucketing(t *testing.T) {
	for name, want := range map[string]string{
		"dsarp/internal/sched.(*Controller).Tick":      "sched",
		"dsarp/internal/core.(*DARP).Tick":             "core",
		"dsarp/internal/refresh.(*Unit).Due":           "dram",
		"dsarp/internal/workload.Mixes":                "trace",
		"dsarp/internal/telemetry.(*Registry).Handler": "serve",
		"dsarp/internal/fifo.(*Queue[...]).Push":       "other",
		"dsarp/internal/exp.singleflight[...]":         "exp",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKey":      "runtime",
		"net/http.(*conn).serve":                       "http",
		"net.(*conn).Read":                             "http",
		"syscall.Syscall6":                             "http",
		"internal/runtime/syscall.Syscall6":            "http",
		"internal/poll.(*FD).Read":                     "http",
		"encoding/json.(*decodeState).object":          "json",
		"crypto/sha256.block":                          "other",
		"main.runRound":                                "other",
		"":                                             "other",
	} {
		if got := layerOf(funcPackage(name)); got != want {
			t.Errorf("%q -> %q, want %q", name, got, want)
		}
	}
}

// protobuf encoding helpers for a synthetic profile.
func pbVarint(b []byte, num int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, num int, payload []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbBytes(b, num, p)
}

func TestAddProfileBucketsLeafFunction(t *testing.T) {
	var p []byte
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds",
		"dsarp/internal/sched.(*Controller).Tick", "encoding/json.Marshal", "net/http.(*conn).serve"} {
		p = pbBytes(p, 6, []byte(s))
	}
	// Functions 1..3 name string-table entries 5..7.
	for id := uint64(1); id <= 3; id++ {
		var f []byte
		f = pbVarint(f, 1, id)
		f = pbVarint(f, 2, id+4)
		p = pbBytes(p, 5, f)
	}
	// Location 1: sched. Location 2: json inlined into http (innermost
	// line first). Location 3: http.
	loc := func(id uint64, fns ...uint64) []byte {
		var l []byte
		l = pbVarint(l, 1, id)
		for _, fn := range fns {
			l = pbBytes(l, 4, pbVarint(nil, 1, fn))
		}
		return l
	}
	p = pbBytes(p, 4, loc(1, 1))
	p = pbBytes(p, 4, loc(2, 2, 3))
	p = pbBytes(p, 4, loc(3, 3))
	sample := func(value uint64, locs ...uint64) []byte {
		var s []byte
		s = pbPacked(s, 1, locs...)
		return pbPacked(s, 2, 1, value)
	}
	p = pbBytes(p, 2, sample(30, 1, 3))
	p = pbBytes(p, 2, sample(10, 2))
	p = pbBytes(p, 2, sample(5, 3))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	got := map[string]int64{}
	if err := addProfile(gz.Bytes(), got); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"sched": 30, "json": 10, "http": 5}
	if len(got) != len(want) {
		t.Fatalf("buckets %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("bucket %s = %d, want %d", k, got[k], v)
		}
	}
	shares := selfShares(got)
	if s := shares["sched.self_pct"]; math.Abs(s-200.0/3) > 1e-9 {
		t.Errorf("sched share %v", s)
	}
	if len(shares) != len(selfLayers) {
		t.Errorf("%d shares, want one per layer", len(shares))
	}
}

func TestParseMetrics(t *testing.T) {
	page := "# HELP x y\n# TYPE dsarp_refused_total counter\n" +
		"dsarp_refused_total{reason=\"queue_full\"} 2\n" +
		"dsarp_refused_total{reason=\"draining\"} 1\n" +
		"dsarp_resume_cycle_sum 288000\n"
	m, err := parseMetrics(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if m["dsarp_refused_total"] != 3 || m["dsarp_resume_cycle_sum"] != 288000 {
		t.Errorf("parsed %v", m)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics and
// workloads this program reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit, Better string }
		code []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, code %d", len(c.file), len(c.code))
			continue
		}
		for i, d := range c.code {
			f := c.file[i]
			if f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, code %+v", i, f, d)
			}
		}
	}
}

// tinyWorkloads shrinks every workload to millisecond simulations.
func tinyWorkloads() []benchWorkload {
	ws := workloads()
	for i := range ws {
		ws[i].sz = sizes{
			batchWarmup: 1_000, batchMeasure: 3_000,
			svcWarmup: 1_000, svcMeasure: 2_000, extendMeasure: 3_000,
			warmRepeats: 42,
		}
	}
	return ws
}

// TestRoundsHoldEnoughSamples checks that one round of every workload, at
// full and at tiny length, holds enough samples for each percentile taken
// within a round.
func TestRoundsHoldEnoughSamples(t *testing.T) {
	for _, ws := range [][]benchWorkload{workloads(), tinyWorkloads()} {
		for _, w := range ws {
			p := newPlan(w, 1)
			if len(p.coldOrder) < minSamples(0.5) || len(p.warmOrder) < minSamples(0.99) || len(p.extendOrder) < minSamples(0.5) {
				t.Errorf("%s: a round has %d cold, %d warm and %d extend requests", w.name, len(p.coldOrder), len(p.warmOrder), len(p.extendOrder))
			}
		}
	}
}

// TestSmokeEveryWorkload runs every workload at tiny length against
// digests pinned for those lengths: each one untraced, two of them traced,
// and one round of each with every pinned digest wrong.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	ws := tinyWorkloads()
	pins, err := computePins(ws, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	for _, w := range ws {
		for _, traced := range []bool{false, true} {
			if traced && w.name != "sat-read" && w.name != "service" {
				continue
			}
			cfg := runConfig{w: w, seed: 5, budget: time.Nanosecond, traced: traced, pins: pins, tmp: tmp, log: io.Discard}
			out, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !out.correct || out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, out.correct, out.attempted, out.failed)
			}
			var buf bytes.Buffer
			if err := report(&buf, cfg, out); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line %q: %v", w.name, lines[len(lines)-1], err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			if !traced {
				for _, d := range defs {
					if res.Metrics[d.name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.name, d.name)
					}
				}
			}
		}

		// The gate: one round against wrong digests fails once per list.
		bad := pinSet{Cold: strings.Repeat("0", 32), Extend: strings.Repeat("0", 32)}
		wantFailed := 2
		if len(w.batch) > 0 {
			bad.Batch = strings.Repeat("0", 32)
			wantFailed = 3
		}
		rd, err := runRound(w, 5, tmp, bad, nil)
		if err != nil {
			t.Fatalf("%s with wrong digests: %v", w.name, err)
		}
		if rd.failed != wantFailed {
			t.Errorf("%s: %d failures against wrong digests, want %d: %q", w.name, rd.failed, wantFailed, rd.problems)
		}
	}
}

// TestWrongPinFailsTheRun checks that a digest mismatch makes the whole
// run incorrect.
func TestWrongPinFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	w := tinyWorkloads()[3]
	pins := pinTable{Schema: exp.SchemaVersion, Digests: map[string]pinSet{w.name: {}}}
	out, err := execute(runConfig{w: w, seed: 5, budget: time.Nanosecond, pins: pins, tmp: t.TempDir(), log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if out.correct || out.failed == 0 {
		t.Errorf("a wrong pinned digest passed: correct=%v failed=%d", out.correct, out.failed)
	}
}
