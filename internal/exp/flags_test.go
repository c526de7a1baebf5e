package exp

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dsarp/internal/sim"
	"dsarp/internal/store"
)

// TestFlags: the shared flags resolve to the scale's options with each
// nonzero override in place, the seed always applied and the engine
// parsed; a negative value, an unknown scale or an unknown engine is an
// error naming it; and -store opens a store only when it names a
// directory.
func TestFlags(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st")
	overrides, seed0, cycle := Defaults(), Defaults(), Defaults()
	overrides.PerCategory, overrides.Measure = 3, 9000
	seed0.Seed = 0
	cycle.Engine = sim.EngineCycle
	for _, c := range []struct {
		args    []string
		want    Options
		err     string // a substring of the error, when one is expected
		storeAt string // the store's directory, when one is expected
	}{
		{args: nil, want: Defaults()},
		{args: []string{"-scale", "paper"}, want: Paper()},
		{args: []string{"-percat", "3", "-measure", "9000"}, want: overrides},
		{args: []string{"-seed", "0"}, want: seed0},
		{args: []string{"-engine", "cycle"}, want: cycle},
		{args: []string{"-percat=-1"}, err: "-percat -1"},
		{args: []string{"-sensitivity=-1"}, err: "-sensitivity -1"},
		{args: []string{"-warmup=-1"}, err: "-warmup -1"},
		{args: []string{"-measure=-5"}, err: "-measure -5"},
		{args: []string{"-seed=-1"}, err: "-seed -1"},
		{args: []string{"-store-max-mb=-1"}, err: "-store-max-mb -1"},
		{args: []string{"-engine", "warp"}, err: `"warp"`},
		{args: []string{"-scale", "papr"}, err: `"papr"`},
		{args: []string{"-store", dir, "-store-max-mb", "1"}, want: Defaults(), storeAt: dir},
		{args: []string{"-store", ""}, want: Defaults()},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := RegisterFlags(fs, "")
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%q: %v", c.args, err)
		}
		got, err := f.Options()
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%q: error %v, want one naming %s", c.args, err, c.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q: %+v, %v; want %+v", c.args, got, err, c.want)
		}
		st, err := f.OpenStore(store.Options{})
		switch {
		case err != nil:
			t.Errorf("%q: OpenStore: %v", c.args, err)
		case c.storeAt == "" && st != nil:
			t.Errorf("%q: opened a store at %s, want none", c.args, st.Dir())
		case c.storeAt != "" && (st == nil || st.Dir() != c.storeAt):
			t.Errorf("%q: store %v, want one at %s", c.args, st, c.storeAt)
		}
	}
}
