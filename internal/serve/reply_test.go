package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dsarp/internal/core"
	"dsarp/internal/exp"
	"dsarp/internal/sim"
	"dsarp/internal/store"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// checkSimReply fails the test unless writeSimReply and writeJSON over
// the simResponse it frames write the same status, content type and body.
func checkSimReply(t *testing.T, name string, key store.Key, src exp.RunSource, resumedFrom int64, payload []byte) {
	t.Helper()
	got := httptest.NewRecorder()
	writeSimReply(got, key, src, resumedFrom, payload)
	want := httptest.NewRecorder()
	writeJSON(want, http.StatusOK, simResponse{
		Key:         key.String(),
		Source:      src.String(),
		Cached:      src.Cached(),
		ResumedFrom: resumedFrom,
		Result:      payload,
	})
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Errorf("%s: status %d %q, want %d %q", name, got.Code, got.Header().Get("Content-Type"),
			want.Code, want.Header().Get("Content-Type"))
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("%s: framed reply differs from writeJSON's\n got: %q\nwant: %q", name, got.Body.Bytes(), want.Body.Bytes())
	}
}

// TestSimReplyMatchesWriteJSON: the hand-framed /v1/sim reply is byte for
// byte the reply writeJSON would write — for every mechanism's result,
// every source, with and without a resume cycle, for result strings the
// encoder escapes, and for accepted payloads that EncodeResult would not
// have written.
func TestSimReplyMatchesWriteJSON(t *testing.T) {
	w := workload.Mixes(1, 4, 3)[1]
	var results []sim.Result
	for _, k := range core.Kinds() {
		res, err := sim.Run(sim.Config{
			Workload: w, Mechanism: k, Density: timing.Gb32,
			Seed: 3, Warmup: 5_000, Measure: 20_000,
		})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		results = append(results, res)
	}
	checked := results[0]
	checked.CheckErr = errors.New(`dram: tRCD violated at cycle 12 <bank 3> & "rank 0"`)
	results = append(results, checked)
	for _, name := range []string{
		`quote"d`, `back\slash`, `<script>&amp;</script>`, "line\u2028para\u2029sep",
		"ctrl\x00\x01\x1f\t\n\r\x7f", "non-ASCII é 日本 \U0001F600", "",
	} {
		named := results[1]
		named.Workload = name
		results = append(results, named)
	}

	type payload struct {
		name string
		data []byte
	}
	var payloads []payload
	for _, res := range results {
		data, err := exp.EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, payload{res.Mechanism + " " + res.Workload, data})
	}
	// Accepted payloads that are not EncodeResult output: whitespace
	// between and around the tokens, and the characters the encoder
	// escapes written raw inside strings.
	enc := payloads[len(core.Kinds())].data // the result with a CheckErr
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, enc, "\t", " \t"); err != nil {
		t.Fatal(err)
	}
	raw := enc
	for esc, c := range map[string]string{`\u003c`: "<", `\u003e`: ">", `\u0026`: "&"} {
		raw = bytes.ReplaceAll(raw, []byte(esc), []byte(c))
	}
	raw = bytes.Replace(raw, []byte(`"workload":"`), []byte("\"workload\":\"\u2028\u2029"), 1)
	if !bytes.Contains(raw, []byte("<bank 3> & ")) {
		t.Fatalf("raw payload kept the encoder's escapes: %s", raw)
	}
	payloads = append(payloads,
		payload{"whitespace", append(append([]byte("\r\n "), spaced.Bytes()...), " \n\t"...)},
		payload{"raw escapes", raw},
	)

	key := store.KeyOf([]byte("reply"))
	sources := []exp.RunSource{exp.SourceComputed, exp.SourceStore, exp.SourceMemory, exp.SourcePeer}
	for _, p := range payloads {
		if _, err := exp.DecodeResult(p.data); err != nil {
			t.Fatalf("%s: payload does not decode: %v", p.name, err)
		}
		for _, src := range sources {
			for _, resumed := range []int64{0, 20_000} {
				checkSimReply(t, p.name+" "+src.String(), key, src, resumed, p.data)
			}
		}
	}
}

// FuzzSimReply: for any valid JSON payload, the hand-framed reply and
// writeJSON's agree byte for byte.
func FuzzSimReply(f *testing.F) {
	res, err := sim.Run(sim.Config{
		Workload: workload.Mixes(1, 2, 3)[1], Mechanism: core.KindDSARP, Density: timing.Gb8,
		Seed: 3, Warmup: 1_000, Measure: 4_000,
	})
	if err != nil {
		f.Fatal(err)
	}
	data, err := exp.EncodeResult(res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data, int64(0), uint8(1))
	for _, seed := range []string{
		`{}`, `[]`, `null`, `-0.5e+10`, `"<<>\"\\  ` + "  \xff" + `"`,
		` { "a" : [ 1 , { } , [ ] , "x" ] , "b" : { "c" : true } } `,
		strings.Repeat("[", 40) + strings.Repeat("]", 40),
	} {
		f.Add([]byte(seed), int64(7), uint8(0))
	}
	f.Fuzz(func(t *testing.T, payload []byte, resumedFrom int64, src uint8) {
		if !json.Valid(payload) {
			return
		}
		checkSimReply(t, "fuzz", store.KeyOf(payload), exp.RunSource(src%5), resumedFrom, payload)
	})
}
