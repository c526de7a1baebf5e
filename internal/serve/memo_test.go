package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dsarp/internal/exp"
	"dsarp/internal/trace"
)

// mustJSON is json.Marshal for a value that always encodes.
func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// memoLen reads how many bodies the memo holds.
func memoLen(s *Server) int {
	s.bodies.mu.Lock()
	defer s.bodies.mu.Unlock()
	return len(s.bodies.m)
}

// TestBodyOneJSONValue: /v1/sim and /v1/sweep accept a body that holds one
// JSON value, with whitespace around it, and answer 400 when anything else
// follows the value.
func TestBodyOneJSONValue(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 2}, nil)
	endpoints := []struct {
		path string
		body []byte
		ok   int
	}{
		{"/v1/sim", mustJSON(t, tinySpec("one-value")), http.StatusOK},
		{"/v1/sweep", mustJSON(t, sweepRequest{Specs: []exp.SimSpec{tinySpec("one-value")}}), http.StatusAccepted},
	}
	for _, tc := range []struct {
		name           string
		prefix, suffix string
		ok             bool
	}{
		{"bare", "", "", true},
		{"whitespace around", " \r\n\t", " \r\n\t ", true},
		{"trailing garbage", "", "garbage", false},
		{"second object", "", `{"junk":1}`, false},
		{"second value after whitespace", "", "\n[]", false},
		{"stray closing brace", "", "}", false},
	} {
		for _, ep := range endpoints {
			body := append(append([]byte(tc.prefix), ep.body...), tc.suffix...)
			resp, reply := s.post(t, ep.path, body)
			want := http.StatusBadRequest
			if tc.ok {
				want = ep.ok
			}
			if resp.StatusCode != want {
				t.Errorf("%s %s: %d %s, want %d", ep.path, tc.name, resp.StatusCode, reply, want)
			}
		}
	}
}

// TestSimBodyMemo: across repeated posts of two distinct bodies, each body
// is decoded, validated and keyed once, and every post gets the same key.
// A body that fails is never memoized: each post of one is decoded again.
func TestSimBodyMemo(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 2}, nil)
	bodies := [][]byte{mustJSON(t, tinySpec("memo-a")), mustJSON(t, tinySpec("memo-b"))}
	const posts = 5
	keys := make([]string, len(bodies))
	for i := 0; i < posts; i++ {
		for j, body := range bodies {
			resp, reply := s.post(t, "/v1/sim", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("post %d of body %d: %d %s", i, j, resp.StatusCode, reply)
			}
			var r simResponse
			if err := json.Unmarshal(reply, &r); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				keys[j] = r.Key
			} else if r.Key != keys[j] {
				t.Errorf("post %d of body %d: key %s, first post %s", i, j, r.Key, keys[j])
			}
		}
	}
	if n := s.bodies.decodes.Load(); n != int64(len(bodies)) {
		t.Errorf("%d bodies posted %d times each were decoded %d times, want once each", len(bodies), posts, n)
	}

	bad := tinySpec("memo-bad")
	bad.Mechanism = "MAGIC"
	for _, body := range [][]byte{
		mustJSON(t, bad),
		append(append([]byte{}, bodies[0]...), "garbage"...),
		[]byte(`{"name":`),
	} {
		for i := 0; i < 2; i++ {
			before := s.bodies.decodes.Load()
			if resp, reply := s.post(t, "/v1/sim", body); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%q: %d %s, want 400", body, resp.StatusCode, reply)
			}
			if s.bodies.decodes.Load() != before+1 {
				t.Errorf("%q, post %d: not decoded; a failed body was memoized", body, i)
			}
		}
	}
	if n := memoLen(s.Server); n != len(bodies) {
		t.Errorf("memo holds %d bodies, want the %d that passed", n, len(bodies))
	}
}

// bigBody is a valid /v1/sim body with n inline profiles whose names are
// long, so its prepared spec holds several times the heap of a library
// spec; seed makes it distinct.
func bigBody(t testing.TB, n int, seed int64) []byte {
	spec := tinySpec("big")
	spec.BenchmarkNames = nil
	spec.Seed = seed
	for i := 0; i < n; i++ {
		spec.Benchmarks = append(spec.Benchmarks, trace.Profile{Name: fmt.Sprintf("%d-%s", i, strings.Repeat("n", 200))})
	}
	return mustJSON(t, spec)
}

// memoBytes sums entryBytes over the memo's entries.
func memoBytes(s *Server) int {
	s.bodies.mu.Lock()
	defer s.bodies.mu.Unlock()
	n := 0
	for _, e := range s.bodies.m {
		n += entryBytes(e.p.Spec())
	}
	return n
}

// TestSimBodyMemoBytes: bodies whose prepared specs are large never take
// the memo past bodyMemoBytes, by its count or by measured heap; the
// latest body that fits an entry is always memoized, and one that does
// not fit is decoded on every post and leaves the memo as it was.
func TestSimBodyMemoBytes(t *testing.T) {
	s := &Server{runner: exp.NewRunner(tinyOpts())}
	post := func(body []byte) simBody {
		t.Helper()
		b, err := s.prepareSim(body)
		if err != nil {
			t.Fatal(err)
		}
		s.remember(b)
		return b
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	const profiles = 100
	var put int
	for i := 0; put <= 2*bodyMemoBytes; i++ {
		b := post(bigBody(t, profiles, int64(i)))
		n := entryBytes(b.p.Spec())
		if n > bodyMemoMaxEntry {
			t.Fatalf("a %d-profile entry counts %d bytes, over the %d an entry may", profiles, n, bodyMemoMaxEntry)
		}
		put += n
		if s.bodies.bytes > bodyMemoBytes || s.bodies.bytes != memoBytes(s) {
			t.Fatalf("after %d bodies the memo counts %d bytes (its entries %d), bound %d",
				i+1, s.bodies.bytes, memoBytes(s), bodyMemoBytes)
		}
		if _, ok := s.bodies.get(b.sum); !ok {
			t.Fatalf("body %d is not in the memo", i)
		}
	}
	if grew := int64(heap()) - int64(before); grew > bodyMemoBytes {
		t.Errorf("a full memo of %d entries holds %d bytes of heap, bound %d", memoLen(s), grew, bodyMemoBytes)
	}
	runtime.KeepAlive(s)

	held, entries := s.bodies.bytes, memoLen(s)
	huge := bigBody(t, bodyMemoMaxEntry/200, -1)
	for i := 0; i < 2; i++ {
		decodes := s.bodies.decodes.Load()
		if b := post(huge); b.hit || entryBytes(b.p.Spec()) <= bodyMemoMaxEntry {
			t.Fatalf("post %d of a %d-byte body: hit %v, entry %d bytes; want a miss over %d",
				i, len(huge), b.hit, entryBytes(b.p.Spec()), bodyMemoMaxEntry)
		}
		if s.bodies.decodes.Load() != decodes+1 {
			t.Errorf("post %d of an oversized body was not decoded", i)
		}
	}
	if s.bodies.bytes != held || memoLen(s) != entries {
		t.Errorf("an oversized body changed the memo: %d entries of %d bytes, was %d of %d",
			memoLen(s), s.bodies.bytes, entries, held)
	}
}

// TestSimBodyMemoRefused: a body refused with 429 is not memoized, so a
// flood of refused posts leaves the memo as it was; once admitted, the
// same body is.
func TestSimBodyMemoRefused(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 1, MaxQueue: 2}, nil)
	body := mustJSON(t, tinySpec("refused"))
	if err := s.reserve(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if resp, reply := s.post(t, "/v1/sim", body); resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("post %d into a full queue: %d %s, want 429", i, resp.StatusCode, reply)
		}
	}
	if n := s.bodies.decodes.Load(); n != 3 {
		t.Errorf("3 refused posts were decoded %d times, want 3: a refused body was memoized", n)
	}
	if n := memoLen(s.Server); n != 0 {
		t.Errorf("memo holds %d bodies after only refused posts", n)
	}
	s.release(2)
	s.tasks.Add(-2)
	for i := 0; i < 2; i++ {
		if resp, reply := s.post(t, "/v1/sim", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("admitted post %d: %d %s", i, resp.StatusCode, reply)
		}
	}
	if n := s.bodies.decodes.Load(); n != 4 {
		t.Errorf("after 2 admitted posts the body was decoded %d times, want 4", n)
	}
}

// TestSimBodyMemoConcurrent: concurrent posts of the same two bodies all
// get the reply a lone post of the body gets, and two concurrent misses
// of one body count it once. Under -race it checks the memo's locking.
func TestSimBodyMemoConcurrent(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 2}, nil)
	bodies := [][]byte{mustJSON(t, tinySpec("conc-a")), mustJSON(t, tinySpec("conc-b"))}
	const posts = 16
	replies := make([]simResponse, posts)
	var wg sync.WaitGroup
	for g := 0; g < posts; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(s.ts.URL+"/v1/sim", "application/json", bytes.NewReader(bodies[g%len(bodies)]))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("post %d: %d", g, resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&replies[g]); err != nil {
				t.Errorf("post %d: %v", g, err)
			}
		}()
	}
	wg.Wait()
	for g := len(bodies); g < posts; g++ {
		want := replies[g%len(bodies)]
		if replies[g].Key != want.Key || !bytes.Equal(replies[g].Result, want.Result) {
			t.Errorf("post %d: key %s, want %s, or a different result", g, replies[g].Key, want.Key)
		}
	}
	if n := memoLen(s.Server); n != len(bodies) {
		t.Errorf("memo holds %d bodies, want %d", n, len(bodies))
	}
	if s.bodies.bytes != memoBytes(s.Server) {
		t.Errorf("memo counts %d bytes, its entries %d: a body put twice was counted twice", s.bodies.bytes, memoBytes(s.Server))
	}
}

// TestAdoptInvalidSpecFails: a job header whose spec this runner no
// longer accepts is still adopted; that spec fails as it would in a
// worker, and the job's other specs run.
func TestAdoptInvalidSpecFails(t *testing.T) {
	opts := tinyOpts()
	storeDir := filepath.Join(t.TempDir(), "store")
	valid, err := exp.NewRunner(opts).PrepareSpec(tinySpec("adopt-valid"))
	if err != nil {
		t.Fatal(err)
	}
	invalid := valid
	invalid.Variant = "retired"
	reg := jobRegistry{dir: filepath.Join(storeDir, "jobs")}
	if err := reg.writeHeader(jobHeader{
		Type: headerType, ID: "invalidspec", Schema: exp.SchemaVersion,
		Specs: []exp.SimSpec{invalid, valid},
	}); err != nil {
		t.Fatal(err)
	}
	s := startDurable(t, opts, Config{Workers: 2}, openStoreDir(t, storeDir))
	defer s.shutdown(t)
	st := waitJobDone(t, s, "invalidspec")
	if st.Done != 2 || st.Errors != 1 || st.Computed != 1 {
		t.Errorf("adopted status %+v, want 2 done: 1 error, 1 computed", st)
	}
}

// freshPrepare is what prepareSim must agree with: a decode that rejects
// unknown fields and any token after the first value, then PrepareSpec.
func freshPrepare(r *exp.Runner, body []byte) (exp.SimSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var spec exp.SimSpec
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	if tok, err := dec.Token(); err != io.EOF {
		return spec, fmt.Errorf("after the value: token %v, error %v", tok, err)
	}
	return r.PrepareSpec(spec)
}

// FuzzSimBody: for any body, prepareSim accepts exactly what a fresh
// decode plus PrepareSpec accepts, with the same canonical spec and key,
// never memoizes a body it rejects, and on a second call after remember
// returns the identical spec and key: from the memo without decoding
// again, unless the entry is over bodyMemoMaxEntry. It runs no
// simulation.
func FuzzSimBody(f *testing.F) {
	r := exp.NewRunner(tinyOpts())
	s := &Server{runner: r}
	inline, err := r.PrepareSpec(tinySpec("inline"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		mustJSON(f, tinySpec("names")),
		mustJSON(f, inline),
		append(mustJSON(f, tinySpec("space")), " \r\n\t"...),
		append(mustJSON(f, tinySpec("junk")), `{"junk":1}`...),
		append(mustJSON(f, tinySpec("garbage")), "garbage"...),
		[]byte(`{"name":"x","benchmark_names":["h264.encode"],"mechanism":"REFab","density_gb":8,"unknown":1}`),
		[]byte(`{"name":"x","benchmark_names":["nope"],"mechanism":"REFab","density_gb":8}`),
		[]byte(`{"name":"x","benchmark_names":["h264.encode"],"mechanism":"DSARP","density_gb":32,"variant":"randpick","engine":"cycle"}`),
		[]byte(`{"NAME":"x","Benchmark_Names":["h264.encode"],"mechanism":"REFab","density_gb":8}`),
		[]byte(`null`), []byte(``), []byte(`[]`), []byte(`{"name":1}`), []byte(`{}}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := freshPrepare(r, body)
		b, err := s.prepareSim(body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("prepareSim error %v; a fresh decode and PrepareSpec give %v", err, wantErr)
		}
		if err != nil {
			if _, ok := s.bodies.get(sha256.Sum256(body)); ok {
				t.Fatal("a rejected body was memoized")
			}
			return
		}
		got := b.p
		if !reflect.DeepEqual(got.Spec(), want) || got.Key() != want.Key() {
			t.Fatalf("prepareSim gave %+v under %s; a fresh decode and PrepareSpec give %+v under %s",
				got.Spec(), got.Key(), want, want.Key())
		}
		s.remember(b)
		decodes := s.bodies.decodes.Load()
		again, err := s.prepareSim(body)
		if err != nil || !reflect.DeepEqual(again.p.Spec(), got.Spec()) || again.p.Key() != got.Key() {
			t.Fatalf("second call gave %+v under %s (error %v); first call %+v under %s",
				again.p.Spec(), again.p.Key(), err, got.Spec(), got.Key())
		}
		if fits := entryBytes(got.Spec()) <= bodyMemoMaxEntry; again.hit != fits {
			t.Fatalf("second call: memo hit %v for an entry of %d bytes, max %d",
				again.hit, entryBytes(got.Spec()), bodyMemoMaxEntry)
		}
		if n := s.bodies.decodes.Load(); again.hit && n != decodes {
			t.Fatalf("a memo hit decoded the body again (%d decodes, was %d)", n, decodes)
		}
	})
}
