package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"dsarp/internal/cache"
	"dsarp/internal/cpu"
	"dsarp/internal/dram"
	"dsarp/internal/power"
	"dsarp/internal/sched"
	"dsarp/internal/sim"
)

// resultWire mirrors sim.Result field for field with a JSON-safe error
// representation. Go's encoding/json prints float64s in their shortest
// exactly-round-tripping form, so a decoded result is bit-identical to the
// encoded one — the property the byte-exact serving guarantee rests on
// (pinned by TestResultJSONRoundTrip and the warm-store golden tests).
type resultWire struct {
	Mechanism string `json:"mechanism"`
	Workload  string `json:"workload"`

	IPC   []float64     `json:"ipc"`
	MPKI  []float64     `json:"mpki"`
	Cores []cpu.Stats   `json:"cores"`
	Cache []cache.Stats `json:"cache"`

	DRAM   dram.Stats      `json:"dram"`
	Sched  sched.Stats     `json:"sched"`
	Energy power.Breakdown `json:"energy"`

	MeasuredCycles int64 `json:"measured_cycles"`
	SteppedCycles  int64 `json:"stepped_cycles"`

	CheckErr string `json:"check_err,omitempty"`
}

// EncodeResult serializes a simulation result for the store and the wire.
func EncodeResult(r sim.Result) ([]byte, error) {
	w := resultWire{
		Mechanism:      r.Mechanism,
		Workload:       r.Workload,
		IPC:            r.IPC,
		MPKI:           r.MPKI,
		Cores:          r.Cores,
		Cache:          r.Cache,
		DRAM:           r.DRAM,
		Sched:          r.Sched,
		Energy:         r.Energy,
		MeasuredCycles: r.MeasuredCycles,
		SteppedCycles:  r.SteppedCycles,
	}
	if r.CheckErr != nil {
		w.CheckErr = r.CheckErr.Error()
	}
	return json.Marshal(w)
}

// DecodeResult is the inverse of EncodeResult. Unknown fields are an
// error: a payload written by a different wire format must read as
// corrupt, not as a silently-partial result. So is anything but
// whitespace after the result, since the serving layer sends accepted
// payloads on as they are.
func DecodeResult(data []byte) (sim.Result, error) {
	var w resultWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return sim.Result{}, fmt.Errorf("exp: decode result: %w", err)
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return sim.Result{}, fmt.Errorf("exp: decode result: %d bytes after the result", len(rest))
	}
	r := sim.Result{
		Mechanism:      w.Mechanism,
		Workload:       w.Workload,
		IPC:            w.IPC,
		MPKI:           w.MPKI,
		Cores:          w.Cores,
		Cache:          w.Cache,
		DRAM:           w.DRAM,
		Sched:          w.Sched,
		Energy:         w.Energy,
		MeasuredCycles: w.MeasuredCycles,
		SteppedCycles:  w.SteppedCycles,
	}
	if w.CheckErr != "" {
		r.CheckErr = errors.New(w.CheckErr)
	}
	return r, nil
}
