package stats

import (
	"fmt"
	"reflect"
)

var int64Type = reflect.TypeOf(int64(0))

// Counters returns pointers to the fields of the struct p points to, in
// declaration order. Every field must be an exported int64; Counters
// panics naming the first one that is not. A component's Stats struct is
// its list of counters: windowing (Sub, Add) and checkpointing walk this
// list, so a new counter is one field and declaration order is snapshot
// order. It allocates, so callers use it at window boundaries and
// snapshots, never per simulated cycle.
func Counters(p any) []*int64 {
	v := reflect.ValueOf(p).Elem()
	t := v.Type()
	out := make([]*int64, t.NumField())
	for i := range out {
		if f := t.Field(i); f.Type != int64Type || !f.IsExported() {
			panic(fmt.Sprintf("stats: counter field %s.%s is %s, want exported int64", t.Name(), f.Name, f.Type))
		}
		out[i] = v.Field(i).Addr().Interface().(*int64)
	}
	return out
}

// Sub returns a - b, field by field.
func Sub[T any](a, b T) T {
	bs := Counters(&b)
	for i, p := range Counters(&a) {
		*p -= *bs[i]
	}
	return a
}

// Add accumulates b into *a, field by field.
func Add[T any](a *T, b T) {
	bs := Counters(&b)
	for i, p := range Counters(a) {
		*p += *bs[i]
	}
}
