package snap

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.Section("alpha")
	w.U64(42)
	w.I64(-7)
	w.Int(123456)
	w.Bool(true)
	w.Bool(false)
	w.F64(3.5)
	w.Str("hello")
	w.Section("beta")
	w.I64(math.MinInt64)
	data := w.Finish()

	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("alpha"); err != nil {
		t.Fatal(err)
	}
	if got := r.U64(); got != 42 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -7 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 123456 {
		t.Errorf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip")
	}
	if got := r.F64(); got != 3.5 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	if err := r.Section("beta"); err != nil {
		t.Fatal(err)
	}
	if got := r.I64(); got != math.MinInt64 {
		t.Errorf("I64 min = %d", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicBytes(t *testing.T) {
	build := func() []byte {
		w := NewWriter(0)
		w.Section("s")
		w.U64(1)
		w.Str("x")
		return w.Finish()
	}
	if !bytes.Equal(build(), build()) {
		t.Error("identical writes produced different bytes")
	}
}

func TestCorruptionDetected(t *testing.T) {
	w := NewWriter(0)
	w.Section("s")
	w.U64(99)
	data := w.Finish()
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x01
		if _, err := NewReader(bad); err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
}

func TestVersionMismatch(t *testing.T) {
	w := NewWriter(0)
	w.Section("s")
	w.U64(1)
	data := w.Finish()
	bad := bytes.Replace(data, []byte(Version), []byte("dsarp-snap-v0"), 1)
	_, err := NewReader(bad)
	if !errors.Is(err, ErrVersion) {
		t.Errorf("got %v, want ErrVersion", err)
	}
}

func TestSectionNameMismatch(t *testing.T) {
	w := NewWriter(0)
	w.Section("right")
	w.U64(1)
	r, err := NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("wrong"); err == nil {
		t.Error("wrong section name accepted")
	}
}

func TestUnconsumedBytesDetected(t *testing.T) {
	w := NewWriter(0)
	w.Section("a")
	w.U64(1)
	w.U64(2)
	w.Section("b")
	w.U64(3)
	r, err := NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("a"); err != nil {
		t.Fatal(err)
	}
	r.U64() // leave one value unread
	if err := r.Section("b"); err == nil {
		t.Error("unconsumed section bytes went undetected")
	}
}

func TestOverreadDetected(t *testing.T) {
	w := NewWriter(0)
	w.Section("a")
	w.U64(1)
	r, err := NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("a"); err != nil {
		t.Fatal(err)
	}
	r.U64()
	r.U64() // past the section body
	if r.Err() == nil {
		t.Error("read past section end went undetected")
	}
}

func TestInvalidBool(t *testing.T) {
	w := NewWriter(0)
	w.Section("a")
	w.buf = append(w.buf, 7) // raw invalid bool byte
	r, err := NewReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("a"); err != nil {
		t.Fatal(err)
	}
	r.Bool()
	if r.Err() == nil {
		t.Error("invalid bool byte accepted")
	}
}

func TestCountingRand(t *testing.T) {
	a := NewRand(1234)
	for i := 0; i < 1000; i++ {
		switch i % 3 {
		case 0:
			a.Intn(17)
		case 1:
			a.Float64()
		case 2:
			a.Uint64()
		}
	}
	draws := a.Draws()
	next := []int{a.Intn(1000), a.Intn(1000), a.Intn(1000)}

	b := NewRand(1234)
	b.Restore(draws)
	if b.Draws() != draws {
		t.Fatalf("restored draw count %d, want %d", b.Draws(), draws)
	}
	for i, want := range next {
		if got := b.Intn(1000); got != want {
			t.Fatalf("draw %d after restore = %d, want %d", i, got, want)
		}
	}
}

func TestCountingRandInPlace(t *testing.T) {
	a := NewRand(9)
	inner := a.Rand // the embedded *rand.Rand must stay valid across Restore
	a.Intn(100)
	a.Restore(a.Draws())
	if a.Rand != inner {
		t.Error("Restore replaced the embedded rand.Rand")
	}
}
