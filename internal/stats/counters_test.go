package stats_test

import (
	"reflect"
	"strings"
	"testing"

	"dsarp/internal/cache"
	"dsarp/internal/cpu"
	"dsarp/internal/dram"
	"dsarp/internal/sched"
	"dsarp/internal/stats"
)

// TestSubAddEveryField sets every field of each simulator Stats struct to
// a distinct value through reflect, independently of Counters, and
// requires Sub and Add to be exact field by field. A windowing that skips
// a field fails here, naming it.
func TestSubAddEveryField(t *testing.T) {
	checkEveryField[cpu.Stats](t)
	checkEveryField[cache.Stats](t)
	checkEveryField[dram.Stats](t)
	checkEveryField[sched.Stats](t)
}

func checkEveryField[T any](t *testing.T) {
	t.Helper()
	var a, b T
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	n := av.NumField()
	for i := 0; i < n; i++ {
		av.Field(i).SetInt(int64(1000*(i+1) + i*i))
		bv.Field(i).SetInt(int64(7 * (i + 1)))
	}
	name := av.Type().String()

	ps := stats.Counters(&a)
	if len(ps) != n {
		t.Fatalf("%s: Counters lists %d fields, struct has %d", name, len(ps), n)
	}
	for i, p := range ps {
		if p != av.Field(i).Addr().Interface().(*int64) {
			t.Errorf("%s: Counters[%d] does not point at %s", name, i, av.Type().Field(i).Name)
		}
	}

	diff := stats.Sub(a, b)
	sum := a
	stats.Add(&sum, b)
	dv, sv := reflect.ValueOf(diff), reflect.ValueOf(sum)
	for i := 0; i < n; i++ {
		x, y := av.Field(i).Int(), bv.Field(i).Int()
		f := av.Type().Field(i).Name
		if got := dv.Field(i).Int(); got != x-y {
			t.Errorf("%s.%s: Sub = %d, want %d", name, f, got, x-y)
		}
		if got := sv.Field(i).Int(); got != x+y {
			t.Errorf("%s.%s: Add = %d, want %d", name, f, got, x+y)
		}
	}
}

// TestCountersRejectsNonCounterField requires Counters to refuse a struct
// that holds anything but exported int64 counters, naming the field.
func TestCountersRejectsNonCounterField(t *testing.T) {
	type mixed struct {
		Reads int64
		Rate  float64
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "mixed.Rate") {
			t.Fatalf("panic %q does not name mixed.Rate", msg)
		}
	}()
	stats.Counters(&mixed{})
}
