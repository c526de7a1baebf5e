package exp

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"testing"

	"dsarp/internal/core"
	"dsarp/internal/golden"
	"dsarp/internal/sim"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// TestResultDigests pins the SHA-256 of every mechanism's encoded Result,
// on both engines, at a small configuration (a four-core 25%-intensive mix
// at 32 Gb, 5,000 + 20,000 cycles, a checkpoint every 5,000) in which every
// mechanism refreshes and drains. The golden tables pin derived numbers
// for a few mechanisms; this pins every counter of all of them, so a
// change to how counters are windowed or encoded shows here. A change to
// the fixture needs an exp.SchemaVersion bump
// (scripts/check-schema-bump.sh); scripts/regen.sh regenerates it.
func TestResultDigests(t *testing.T) {
	w := workload.Mixes(1, 4, 3)[1]
	if w.Name != "mix01.cat25" {
		t.Fatalf("digest workload is %s, want mix01.cat25", w.Name)
	}
	var got []byte
	for _, e := range []sim.Engine{sim.EngineEvent, sim.EngineCycle} {
		for _, k := range core.Kinds() {
			cfg := sim.Config{
				Workload:  w,
				Mechanism: k,
				Density:   timing.Gb32,
				Engine:    e,
				Seed:      3,
				Warmup:    5_000,
				Measure:   20_000,
			}
			res, _, err := sim.RunWithCheckpoints(cfg, 5_000, func(int64, []byte) {})
			if err != nil {
				t.Fatalf("%s %s: %v", k, e, err)
			}
			data, err := EncodeResult(res)
			if err != nil {
				t.Fatal(err)
			}
			got = fmt.Appendf(got, "%s %s %x\n", k, e, sha256.Sum256(data))
		}
	}

	golden.Check(t, filepath.Join("testdata", "result_digests.txt"), got)
}
