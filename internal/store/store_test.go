package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func open(t testing.TB, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	key := KeyOf([]byte("spec-a"))
	payload := []byte(`{"ipc":[0.5,1.25]}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want stored payload", got, ok)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The entry file is the header line followed by the payload, and the
	// index books its whole size.
	want := fmt.Sprintf("%s %s %d\n%s", magic, KeyOf(payload), len(payload), payload)
	if raw, err := os.ReadFile(s.EntryPath(key)); err != nil || string(raw) != want {
		t.Errorf("entry file = %q, %v; want %q", raw, err, want)
	}
	if st.Bytes != int64(len(want)) {
		t.Errorf("stats book %d bytes, entry file has %d", st.Bytes, len(want))
	}
}

func TestPersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	key := KeyOf([]byte("spec-b"))
	payload := []byte("persist me")
	s := open(t, dir, Options{})
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{})
	got, ok := s2.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("reopened store lost the entry: %q, %v", got, ok)
	}
	if s2.Len() != 1 {
		t.Errorf("reopened Len = %d", s2.Len())
	}
}

// TestCorruptionIsAMiss pins the recovery contract: a truncated or
// bit-flipped entry must read as a miss (so callers recompute) and the bad
// file must be deleted (so the recompute's Put heals the slot).
func TestCorruptionIsAMiss(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(path string) error
	}{
		{"truncated", func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, b[:len(b)-3], 0o666)
		}},
		{"bitflip", func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			b[len(b)-1] ^= 0x40
			return os.WriteFile(path, b, 0o666)
		}},
		{"emptied", func(path string) error {
			return os.WriteFile(path, nil, 0o666)
		}},
		{"trailing-garbage", func(path string) error {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.WriteString("extra")
			return err
		}},
		{"huge-length-header", func(path string) error {
			// A corrupt length field must be rejected before the payload
			// buffer is allocated, not crash the process trying.
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			i := bytes.IndexByte(b, '\n')
			head := bytes.Fields(b[:i])
			head[2] = []byte("99999999999999")
			return os.WriteFile(path, append(append(bytes.Join(head, []byte(" ")), '\n'), b[i+1:]...), 0o666)
		}},
		{"malformed-header", func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, append([]byte(magic+" 5\n"), b[bytes.IndexByte(b, '\n')+1:]...), 0o666)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, Options{})
			key := KeyOf([]byte("spec-" + tc.name))
			payload := []byte("some result payload for " + tc.name)
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if err := tc.corrupt(s.EntryPath(key)); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupt entry served as a hit: %q", got)
			}
			if _, err := os.Stat(s.EntryPath(key)); !os.IsNotExist(err) {
				t.Error("corrupt entry not deleted")
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Errorf("Corrupt = %d, want 1", st.Corrupt)
			}
			// The slot heals: a fresh Put+Get works again.
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Error("healed entry unreadable")
			}
		})
	}
}

// FuzzReadEntry feeds the entry decoder hostile bytes, as a damaged or
// foreign file in the store directory could hold: no input panics, and
// every entry PutKind writes reads back as the payload it stored.
func FuzzReadEntry(f *testing.F) {
	s := open(f, f.TempDir(), Options{})
	payload := []byte(`{"ipc":[0.5,1.25]}`)
	f.Add([]byte(fmt.Sprintf("%s %s %d\n%s", magic, KeyOf(payload), len(payload), payload)))
	f.Add([]byte(magic + " 00 -1\n"))
	f.Add([]byte(magic + "  \n\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, err := parseEntry(data); err == nil && !bytes.HasSuffix(data, payload) {
			t.Fatalf("entry %q parsed to a payload it does not end with: %q", data, payload)
		}
		k := KeyOf(data)
		if err := s.Put(k, data); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(k); !ok || !bytes.Equal(got, data) {
			t.Fatalf("entry of %q read back as %q, %v", data, got, ok)
		}
	})
}

func TestByteCapEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 256)
	// Entry size = header + 256; cap the store at roughly 3 entries.
	s := open(t, dir, Options{MaxBytes: 3 * 360})
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = KeyOf([]byte(fmt.Sprintf("entry-%d", i)))
		if err := s.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
		// Keep entry 0 hot so eviction order reflects use, not insertion.
		if _, ok := s.Get(keys[0]); i < 3 && !ok {
			t.Fatalf("hot entry evicted at i=%d", i)
		}
	}
	if _, ok := s.Get(keys[0]); !ok {
		t.Error("most-recently-used entry was evicted")
	}
	if _, ok := s.Get(keys[1]); ok {
		t.Error("least-recently-used entry survived over cap")
	}
	st := s.Stats()
	if st.Evicted == 0 {
		t.Error("no evictions recorded")
	}
	if st.Bytes > 3*360 {
		t.Errorf("store over cap: %d bytes", st.Bytes)
	}
}

func TestTempFilesCleanedAtOpen(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, tmpPrefix+"crashed")
	fresh := filepath.Join(dir, tmpPrefix+"inflight")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, Options{})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived Open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file reaped: it may belong to a live writer in another process")
	}
	if s.Len() != 0 {
		t.Errorf("temp file indexed as entry: Len = %d", s.Len())
	}
}

// TestUnindexedCorruptFileDeleted: a corrupt entry this process never
// indexed (written by another process sharing the directory) is still
// deleted on the failed read, so the slot heals for everyone.
func TestUnindexedCorruptFileDeleted(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	key := KeyOf([]byte("foreign"))
	path := s.EntryPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("not a valid entry"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt foreign entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt foreign entry not deleted")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", st.Corrupt)
	}
}

// TestCrossProcessVisibility: a second Store over the same directory (a
// concurrent CLI run or daemon) sees entries written after its Open.
func TestCrossProcessVisibility(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, Options{})
	b := open(t, dir, Options{}) // opened before a writes anything
	key := KeyOf([]byte("shared"))
	payload := []byte("written by a, read by b")
	if err := a.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("sibling store missed a post-Open entry: %q, %v", got, ok)
	}
	if b.Len() != 1 {
		t.Errorf("probed entry not indexed: Len = %d", b.Len())
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o666); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, Options{})
	if s.Len() != 0 {
		t.Errorf("foreign file indexed: Len = %d", s.Len())
	}
}

func TestKeyParseRoundTrip(t *testing.T) {
	k := KeyOf([]byte("abc"))
	got, err := ParseKey(k.String())
	if err != nil || got != k {
		t.Fatalf("ParseKey(%q) = %v, %v", k.String(), got, err)
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Error("short key parsed")
	}
	if _, err := ParseKey(strings.Repeat("zz", 32)); err == nil {
		t.Error("non-hex key parsed")
	}
}

// TestGenerationSweepAtOpen pins the schema GC contract: entries written
// under generation A are swept — not merely missed — when the store
// reopens under generation B, with the reclaimed space reported; same- and
// no-generation reopens keep everything.
func TestGenerationSweepAtOpen(t *testing.T) {
	dir := t.TempDir()
	key := KeyOf([]byte("gen-a-entry"))
	payload := []byte("salted with generation A")
	s := open(t, dir, Options{Generation: "schema-a"})
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}

	// Same generation: warm across restarts, nothing swept.
	s2 := open(t, dir, Options{Generation: "schema-a"})
	if _, ok := s2.Get(key); !ok {
		t.Fatal("same-generation reopen lost the entry")
	}
	if st := s2.Stats(); st.Expired != 0 {
		t.Errorf("same-generation reopen expired %d entries", st.Expired)
	}

	// New generation: the old entry's key can never be addressed again, so
	// it is deleted immediately and the space accounted.
	s3 := open(t, dir, Options{Generation: "schema-b"})
	if st := s3.Stats(); st.Expired != 1 || st.ExpiredBytes <= int64(len(payload)) {
		t.Errorf("new-generation reopen: Expired=%d ExpiredBytes=%d, want 1 entry > payload size",
			st.Expired, st.ExpiredBytes)
	}
	if s3.Len() != 0 {
		t.Errorf("swept store indexes %d entries", s3.Len())
	}
	if _, err := os.Stat(s3.EntryPath(key)); !os.IsNotExist(err) {
		t.Error("old-generation entry file survived the sweep")
	}

	// And the sweep happens exactly once: reopening under B again is calm.
	s4 := open(t, dir, Options{Generation: "schema-b"})
	if st := s4.Stats(); st.Expired != 0 {
		t.Errorf("second same-generation reopen expired %d entries", st.Expired)
	}
}

// TestGenerationAdoptsLegacyStore: a pre-manifest store directory (entries
// but no MANIFEST) is adopted, not nuked — its entries were written by the
// same binary lineage and are presumed current.
func TestGenerationAdoptsLegacyStore(t *testing.T) {
	dir := t.TempDir()
	key := KeyOf([]byte("legacy-entry"))
	s := open(t, dir, Options{}) // no generation: no manifest written
	if err := s.Put(key, []byte("warm result")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); !os.IsNotExist(err) {
		t.Fatal("generation-less store wrote a manifest")
	}
	s2 := open(t, dir, Options{Generation: "schema-a"})
	if _, ok := s2.Get(key); !ok {
		t.Error("legacy entry swept on first generation-aware open")
	}
	if st := s2.Stats(); st.Expired != 0 {
		t.Errorf("adoption expired %d entries", st.Expired)
	}
	// The adoption recorded the generation: a later generation now sweeps.
	s3 := open(t, dir, Options{Generation: "schema-b"})
	if st := s3.Stats(); st.Expired != 1 {
		t.Errorf("post-adoption bump expired %d entries, want 1", st.Expired)
	}
}

// TestContains probes existence without disturbing LRU or read stats.
func TestContains(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	key := KeyOf([]byte("contains-me"))
	if s.Contains(key) {
		t.Fatal("empty store contains the key")
	}
	if err := s.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(key) {
		t.Fatal("store does not contain a just-put key")
	}
	// Written by "another process": visible without an index entry.
	other := open(t, dir, Options{})
	key2 := KeyOf([]byte("other-writer"))
	if err := other.Put(key2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(key2) {
		t.Error("Contains missed an entry written by a sibling store")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Contains touched read stats: %+v", st)
	}
}

// TestDegradedMode: a write failure flips the store read-only — later
// Puts fail fast without disk I/O, Gets keep serving, and the reason is
// reported via Degraded() and Stats. A fresh Open starts healthy again.
func TestDegradedMode(t *testing.T) {
	dir := t.TempDir()
	fail := false
	s := open(t, dir, Options{FailWrites: func() error {
		if fail {
			return fmt.Errorf("injected ENOSPC")
		}
		return nil
	}})

	keyA := KeyOf([]byte("healthy"))
	if err := s.Put(keyA, []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	if deg, _ := s.Degraded(); deg {
		t.Fatal("healthy store reports degraded")
	}

	fail = true
	keyB := KeyOf([]byte("doomed"))
	if err := s.Put(keyB, []byte("payload-b")); err == nil {
		t.Fatal("Put succeeded through an injected write failure")
	}
	deg, reason := s.Degraded()
	if !deg || !strings.Contains(reason, "ENOSPC") {
		t.Fatalf("Degraded() = %v, %q; want true with the injected reason", deg, reason)
	}

	// Degraded Puts fail fast even once the injected fault clears: the
	// state is sticky until a fresh Open.
	fail = false
	if err := s.Put(keyB, []byte("payload-b")); err == nil ||
		!strings.Contains(err.Error(), "read-only") {
		t.Fatalf("degraded Put = %v, want read-only refusal", err)
	}
	if got, ok := s.Get(keyA); !ok || !bytes.Equal(got, []byte("payload-a")) {
		t.Fatal("degraded store no longer serves existing entries")
	}
	st := s.Stats()
	if !st.Degraded || st.DegradedReason == "" || st.WriteErrs != 2 {
		t.Fatalf("stats = %+v; want degraded with reason and 2 write errors", st)
	}

	// A restart onto a repaired disk is healthy and writable.
	s2 := open(t, dir, Options{})
	if deg, _ := s2.Degraded(); deg {
		t.Fatal("fresh Open inherited degraded state")
	}
	if err := s2.Put(keyB, []byte("payload-b")); err != nil {
		t.Fatal(err)
	}
}

func TestKindNamespacesAreDisjoint(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	key := KeyOf([]byte("shared"))
	if err := s.PutKind(key, KindResult, []byte("result-payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutKind(key, KindSnapshot, []byte("snapshot-payload")); err != nil {
		t.Fatal(err)
	}
	res, ok := s.GetKind(key, KindResult)
	if !ok || string(res) != "result-payload" {
		t.Fatalf("result namespace = %q, %v", res, ok)
	}
	snap, ok := s.GetKind(key, KindSnapshot)
	if !ok || string(snap) != "snapshot-payload" {
		t.Fatalf("snapshot namespace = %q, %v", snap, ok)
	}
	st := s.Stats()
	if st.ResultEntries != 1 || st.SnapshotEntries != 1 || st.Entries != 2 {
		t.Errorf("kind split: %+v", st)
	}
	if st.ResultBytes+st.SnapshotBytes != st.Bytes {
		t.Errorf("kind bytes %d+%d do not sum to total %d", st.ResultBytes, st.SnapshotBytes, st.Bytes)
	}
}

func TestKindNamespacesPersistAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	key := KeyOf([]byte("snapshot-entry"))
	if err := s.PutKind(key, KindSnapshot, []byte("checkpoint")); err != nil {
		t.Fatal(err)
	}
	reopened := open(t, dir, Options{})
	if got, ok := reopened.GetKind(key, KindSnapshot); !ok || string(got) != "checkpoint" {
		t.Fatalf("reopened snapshot = %q, %v", got, ok)
	}
	if reopened.ContainsKind(key, KindResult) {
		t.Error("snapshot entry leaked into the result namespace")
	}
	st := reopened.Stats()
	if st.SnapshotEntries != 1 || st.ResultEntries != 0 {
		t.Errorf("reopened kind split: %+v", st)
	}
}

// TestByteCapEvictsSnapshotsFirst pins the retention priority: under byte
// pressure every snapshot is evicted — even recently-used ones — before a
// single result is touched. Snapshots only accelerate recomputation;
// results are the store's cargo.
func TestByteCapEvictsSnapshotsFirst(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 100)
	sizer := open(t, t.TempDir(), Options{})
	if err := sizer.Put(KeyOf([]byte("sizer")), payload); err != nil {
		t.Fatal(err)
	}
	entrySize := sizer.Stats().Bytes
	s := open(t, t.TempDir(), Options{MaxBytes: 4 * entrySize})

	oldRes := KeyOf([]byte("result-old"))
	if err := s.PutKind(oldRes, KindResult, payload); err != nil {
		t.Fatal(err)
	}
	snaps := make([]Key, 3)
	for i := range snaps {
		snaps[i] = KeyOf([]byte(fmt.Sprintf("snap-%d", i)))
		if err := s.PutKind(snaps[i], KindSnapshot, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Refresh every snapshot's LRU stamp: the result is now the coldest
	// entry by recency, so plain LRU would evict it first.
	for _, k := range snaps {
		if _, ok := s.GetKind(k, KindSnapshot); !ok {
			t.Fatal("warm snapshot missing before pressure")
		}
	}
	// Two more results push the store to 6 entries against a 4-entry cap.
	for i := 0; i < 2; i++ {
		if err := s.PutKind(KeyOf([]byte(fmt.Sprintf("result-%d", i))), KindResult, payload); err != nil {
			t.Fatal(err)
		}
	}
	if !s.ContainsKind(oldRes, KindResult) {
		t.Error("cold result evicted while snapshots remained")
	}
	st := s.Stats()
	if st.ResultEntries != 3 {
		t.Errorf("results held = %d, want all 3 (stats %+v)", st.ResultEntries, st)
	}
	if st.SnapshotEntries != 1 {
		t.Errorf("snapshots held = %d, want 1 survivor under the cap", st.SnapshotEntries)
	}
	for _, k := range snaps[:2] {
		if s.ContainsKind(k, KindSnapshot) {
			t.Error("LRU order violated within the snapshot namespace")
		}
	}
}
