// Package golden compares a test's output with its committed fixture. Every
// byte-pinned fixture in the repository is read through Check, so one
// switch, DSARP_UPDATE=1, rewrites them all. scripts/regen.sh sets it, then
// proves the rewritten fixtures with a plain test run; use it only for an
// intended behaviour change.
package golden

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// Env names the switch that makes Check rewrite fixtures.
const Env = "DSARP_UPDATE"

// Check fails t unless got equals the fixture at path, naming the path and
// the first differing line (text) or both sizes (binary). When Env is set it
// first writes got to path, creating the directory. It refuses Env when CI
// is set, so a CI job cannot pass by rewriting its own pins.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if os.Getenv(Env) != "" {
		if os.Getenv("CI") != "" {
			t.Fatalf("golden: %s is set under CI; fixtures are regenerated by scripts/regen.sh, never by a CI job", Env)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("golden: %v", err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("golden: %v; if the fixture is new, run scripts/regen.sh (%s=1 writes it)", err, Env)
		return
	}
	if !bytes.Equal(got, want) {
		t.Errorf("golden: %s: %s; if the change is intended, run scripts/regen.sh (%s=1 rewrites it)",
			path, firstDiff(got, want), Env)
	}
}

// firstDiff says where got and want part: at their first differing line when
// both are text, by their sizes otherwise.
func firstDiff(got, want []byte) string {
	if !isText(got) || !isText(want) {
		return fmt.Sprintf("got %d bytes, fixture has %d", len(got), len(want))
	}
	g := strings.SplitAfter(string(got), "\n")
	w := strings.SplitAfter(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	return fmt.Sprintf("line %d: got %s, fixture has %s", i+1, lineAt(g, i), lineAt(w, i))
}

func isText(b []byte) bool { return utf8.Valid(b) && bytes.IndexByte(b, 0) < 0 }

// lineAt quotes line i with its newline, so a missing final newline shows.
// SplitAfter leaves an empty last element after a final newline.
func lineAt(lines []string, i int) string {
	if i >= len(lines) || lines[i] == "" {
		return "end of file"
	}
	return strconv.Quote(lines[i])
}
