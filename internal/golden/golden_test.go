package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// recorder is a testing.TB that records failures instead of reporting them.
// Methods Check does not call stay nil and panic if called.
type recorder struct {
	testing.TB
	msgs  []string
	fatal bool
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}

func (r *recorder) Fatalf(format string, args ...any) {
	r.Errorf(format, args...)
	r.fatal = true
	runtime.Goexit()
}

// check runs Check against a recorder on a goroutine of its own, as the
// testing package runs a test, so that Fatalf can end it.
func check(path string, got []byte) *recorder {
	r := &recorder{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Check(r, path, got)
	}()
	<-done
	return r
}

func writeFixture(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckMatch(t *testing.T) {
	t.Setenv(Env, "")
	path := filepath.Join(t.TempDir(), "f.txt")
	writeFixture(t, path, []byte("a\nb\n"))
	if r := check(path, []byte("a\nb\n")); len(r.msgs) != 0 {
		t.Errorf("matching bytes failed: %q", r.msgs)
	}
}

func TestCheckDrift(t *testing.T) {
	t.Setenv(Env, "")
	for _, c := range []struct {
		name      string
		want, got []byte
		says      string
	}{
		{"text", []byte("a\nb\nc\n"), []byte("a\nB\nc\n"), `line 2: got "B\n", fixture has "b\n"`},
		{"text longer", []byte("a\n"), []byte("a\nb\n"), `line 2: got "b\n", fixture has end of file`},
		{"final newline", []byte("a\n"), []byte("a"), `line 1: got "a", fixture has "a\n"`},
		{"binary", []byte{0, 1, 2}, []byte{0, 1}, "got 2 bytes, fixture has 3"},
	} {
		path := filepath.Join(t.TempDir(), "f")
		writeFixture(t, path, c.want)
		r := check(path, c.got)
		if len(r.msgs) != 1 || r.fatal {
			t.Fatalf("%s: drift gave %q (fatal %v), want one error", c.name, r.msgs, r.fatal)
		}
		for _, s := range []string{path, c.says, Env} {
			if !strings.Contains(r.msgs[0], s) {
				t.Errorf("%s: message %q does not name %q", c.name, r.msgs[0], s)
			}
		}
	}
}

func TestCheckUpdateCreates(t *testing.T) {
	t.Setenv(Env, "1")
	t.Setenv("CI", "")
	path := filepath.Join(t.TempDir(), "new", "dir", "f.txt")
	if r := check(path, []byte("fresh\n")); len(r.msgs) != 0 {
		t.Fatalf("update mode failed: %q", r.msgs)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "fresh\n" {
		t.Errorf("fixture = %q, %v; want the checked bytes", data, err)
	}
}

func TestCheckUpdateRefusedUnderCI(t *testing.T) {
	t.Setenv(Env, "1")
	t.Setenv("CI", "true")
	path := filepath.Join(t.TempDir(), "f.txt")
	writeFixture(t, path, []byte("pinned\n"))
	r := check(path, []byte("drifted\n"))
	if !r.fatal || len(r.msgs) != 1 || !strings.Contains(r.msgs[0], "CI") {
		t.Errorf("update mode under CI gave %q (fatal %v), want a fatal error naming CI", r.msgs, r.fatal)
	}
	if data, _ := os.ReadFile(path); string(data) != "pinned\n" {
		t.Errorf("update mode under CI rewrote the fixture to %q", data)
	}
}
