package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"dsarp/internal/core"
	"dsarp/internal/exp"
	"dsarp/internal/sim"
	"dsarp/internal/snap"
	"dsarp/internal/store"
	"dsarp/internal/timing"
	"dsarp/internal/workload"
)

// peerService builds a service joined to a replication ring. peers may
// include the service's own (not-yet-known) URL — Self is injected after
// the listener exists via the two-step construction below.
func peerService(t *testing.T, opts exp.Options, self string, peers []string, st *store.Store) *testService {
	t.Helper()
	cfg := Config{
		Workers: 2,
		Peer: &PeerConfig{
			Self:            self,
			Peers:           peers,
			Replicas:        2,
			FetchTimeout:    2 * time.Second,
			PushAttempts:    2,
			PushBaseBackoff: 10 * time.Millisecond,
			PushMaxBackoff:  50 * time.Millisecond,
		},
	}
	return newService(t, opts, cfg, st)
}

func replicationStats(t *testing.T, s *testService) ReplicationStats {
	t.Helper()
	resp, body := s.get(t, "/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats: %d", resp.StatusCode)
	}
	var out struct {
		Replication *ReplicationStats `json:"replication"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Replication == nil {
		t.Fatal("/v1/stats has no replication section on a peer-configured worker")
	}
	return *out.Replication
}

// TestResultGetServesVerifiedPayload: GET /v1/results/{key} returns the
// exact stored EncodeResult bytes with their SHA-256 declared in the
// header — the contract every hedged peer fetch verifies against.
func TestResultGetServesVerifiedPayload(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 2}, nil)
	spec := tinySpec("result-get")
	if resp, body := s.post(t, "/v1/sim", spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: %d %s", resp.StatusCode, body)
	}
	s.runner.WaitWrites() // the reply may precede the result's store write
	prepared, err := s.runner.PrepareSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := prepared.Key()

	resp, body := s.get(t, "/v1/results/"+key.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %d %s", resp.StatusCode, body)
	}
	sum := sha256.Sum256(body)
	if got := resp.Header.Get(payloadHashHeader); got != hex.EncodeToString(sum[:]) {
		t.Errorf("declared hash %q does not match body hash %x", got, sum)
	}
	if _, err := exp.DecodeResult(body); err != nil {
		t.Errorf("served payload does not decode: %v", err)
	}
	stored, ok := s.store.Get(key)
	if !ok || !bytes.Equal(stored, body) {
		t.Error("served payload is not byte-identical to the store entry")
	}

	if resp, _ := s.get(t, "/v1/results/"+store.KeyOf([]byte("absent")).String()); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET of unknown key: %d, want 404", resp.StatusCode)
	}
	if resp, _ := s.get(t, "/v1/results/not-a-key"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET of malformed key: %d, want 400", resp.StatusCode)
	}
}

// putResult PUTs a payload with an explicitly declared hash (possibly a
// lie, for the corruption tests).
func putResult(t *testing.T, base string, key store.Key, payload []byte, declared string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/results/"+key.String(), bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if declared != "" {
		req.Header.Set(payloadHashHeader, declared)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestResultPutVerifiesAndPersists: a pushed replica lands only after
// its bytes match the declared hash AND decode as a result; everything
// else bounces with 400 and is counted, so a corrupt push can never
// poison a peer's warm store.
func TestResultPutVerifiesAndPersists(t *testing.T) {
	// Compute a genuine payload on one service...
	src := newService(t, tinyOpts(), Config{Workers: 2}, nil)
	spec := tinySpec("result-put")
	if resp, body := src.post(t, "/v1/sim", spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: %d %s", resp.StatusCode, body)
	}
	src.runner.WaitWrites() // the reply may precede the result's store write
	prepared, err := src.runner.PrepareSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := prepared.Key()
	payload, ok := src.store.Get(key)
	if !ok {
		t.Fatal("computed result not in source store")
	}
	sum := sha256.Sum256(payload)
	declared := hex.EncodeToString(sum[:])

	// ...and push it to a fresh ring member.
	dst := peerService(t, tinyOpts(), "http://self.invalid", nil, nil)
	if resp := putResult(t, dst.ts.URL, key, payload, declared); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("valid PUT: %d, want 204", resp.StatusCode)
	}
	got, ok := dst.store.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("pushed payload not persisted byte-identically")
	}
	// Idempotent: a duplicate push is acknowledged without a rewrite.
	if resp := putResult(t, dst.ts.URL, key, payload, declared); resp.StatusCode != http.StatusNoContent {
		t.Errorf("duplicate PUT: %d, want 204", resp.StatusCode)
	}

	// Corruption gauntlet — each variant must bounce with 400 and leave
	// the store untouched.
	freshKey := store.KeyOf([]byte("poison-target"))
	truncated := payload[:len(payload)/2]
	cases := []struct {
		name     string
		body     []byte
		declared string
	}{
		{"hash mismatch", truncated, declared},
		{"undecodable but honestly hashed", []byte("garbage"), hexOf([]byte("garbage"))},
		{"missing hash declaration", payload, ""},
	}
	before := replicationStats(t, dst).CorruptRejected
	for _, tc := range cases {
		if resp := putResult(t, dst.ts.URL, freshKey, tc.body, tc.declared); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", tc.name, resp.StatusCode)
		}
		if dst.store.Contains(freshKey) {
			t.Fatalf("%s: corrupt payload reached the store", tc.name)
		}
	}
	if after := replicationStats(t, dst).CorruptRejected; after-before != int64(len(cases)) {
		t.Errorf("corrupt_rejected advanced by %d, want %d", after-before, len(cases))
	}
}

func hexOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestOversizedBodyGets413 pins the net/http MaxBytesReader contract on
// the JSON endpoints: a request body past the cap is answered with 413
// (not a generic 400), which also lets net/http close the connection so
// the client stops streaming a body nobody will read.
func TestOversizedBodyGets413(t *testing.T) {
	s := newService(t, tinyOpts(), Config{Workers: 1}, nil)
	// Well-formed JSON up to the cap, so the decoder is still reading —
	// and hits the byte limit — rather than bailing on a syntax error.
	big := append([]byte(`{"name":"`), bytes.Repeat([]byte("x"), maxResultBytes+1)...)
	big = append(big, '"', '}')
	resp, err := http.Post(s.ts.URL+"/v1/sim", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized /v1/sim body: %d, want 413", resp.StatusCode)
	}
}

// TestPeerFetchAvoidsRecompute: once a ring sibling holds a result, a
// member that misses locally serves the same spec via a live peer fetch
// instead of simulating, and repairs the payload into its own store.
// (The sibling is deliberately not peer-configured, so no push can land
// the result early — the fetch path alone must explain the hit.)
func TestPeerFetchAvoidsRecompute(t *testing.T) {
	opts := tinyOpts()
	a := newService(t, opts, Config{Workers: 2}, nil)
	b := peerService(t, opts, "http://b.invalid", []string{a.ts.URL}, nil)

	spec := tinySpec("peer-fetch")
	if resp, body := a.post(t, "/v1/sim", spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("sim on a: %d %s", resp.StatusCode, body)
	}
	a.runner.WaitWrites() // the reply may precede the result's store write
	resp, body := b.post(t, "/v1/sim", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim on b: %d %s", resp.StatusCode, body)
	}
	var sr simResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Source != "peer" {
		t.Errorf("source = %q, want \"peer\" (b holds nothing locally)", sr.Source)
	}
	if n := b.runner.SimsRun(); n != 0 {
		t.Errorf("b simulated %d times despite a peer holding the result", n)
	}
	if st := replicationStats(t, b); st.FetchHits == 0 {
		t.Errorf("fetch_hits = 0 after a successful peer fetch: %+v", st)
	}
	// Read-through repair: the fetched payload is now b's own store
	// entry, byte-identical to a's.
	prepared, _ := b.runner.PrepareSpec(spec)
	want, _ := a.store.Get(prepared.Key())
	got, ok := b.store.Get(prepared.Key())
	if !ok || !bytes.Equal(got, want) {
		t.Error("peer-fetched payload not repaired into the local store byte-identically")
	}
}

// TestPeerFetchRejectsCorrupt: a ring member serving corrupt payloads —
// wrong bytes under a confident hash, or an honest hash over garbage —
// must not be trusted: the fetch is rejected and counted, and the worker
// falls back to a clean local simulation.
func TestPeerFetchRejectsCorrupt(t *testing.T) {
	garbage := []byte("not a result payload")
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			// Honest hash over undecodable bytes: transport checks pass,
			// the decode gate must still reject it.
			w.Header().Set(payloadHashHeader, hexOf(garbage))
			w.WriteHeader(http.StatusOK)
			w.Write(garbage)
		default:
			w.WriteHeader(http.StatusNoContent) // swallow pushes quietly
		}
	}))
	t.Cleanup(evil.Close)

	s := peerService(t, tinyOpts(), "http://self.invalid", []string{evil.URL}, nil)
	resp, body := s.post(t, "/v1/sim", tinySpec("corrupt-peer"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: %d %s", resp.StatusCode, body)
	}
	var sr simResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Source != "computed" {
		t.Errorf("source = %q, want \"computed\" (corrupt peer payload must not be served)", sr.Source)
	}
	st := replicationStats(t, s)
	if st.CorruptRejected == 0 {
		t.Errorf("corrupt_rejected = 0 after a corrupt peer response: %+v", st)
	}
	if st.FetchMisses == 0 {
		t.Errorf("fetch_misses = 0; rejecting every owner must count a miss: %+v", st)
	}
}

// TestResultGetSurvivesDegradedStore: a worker whose disk has failed
// (sticky read-only degraded mode) keeps serving every payload it
// already holds — exactly what lets its ring siblings repair reads while
// it limps — and refuses pushed replicas with 503 instead of lying.
func TestResultGetSurvivesDegradedStore(t *testing.T) {
	failing := false
	st, err := store.Open(t.TempDir(), store.Options{FailWrites: func() error {
		if failing {
			return errors.New("injected disk failure")
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, tinyOpts(), Config{Workers: 2}, st)

	spec := tinySpec("degraded-get")
	if resp, body := s.post(t, "/v1/sim", spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: %d %s", resp.StatusCode, body)
	}
	s.runner.WaitWrites() // the reply may precede the result's store write
	prepared, _ := s.runner.PrepareSpec(spec)
	key := prepared.Key()

	// Kill the disk; the next write degrades the store for good.
	failing = true
	if resp, _ := s.post(t, "/v1/sim", tinySpec("degraded-trigger")); resp.StatusCode != http.StatusOK {
		t.Fatalf("sim under failing writes should still answer: %d", resp.StatusCode)
	}
	s.runner.WaitWrites()
	if deg, _ := st.Degraded(); !deg {
		t.Fatal("store did not degrade after the injected write failure")
	}

	resp, body := s.get(t, "/v1/results/"+key.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET on a degraded store: %d, want 200 (reads must survive)", resp.StatusCode)
	}
	if _, err := exp.DecodeResult(body); err != nil {
		t.Errorf("degraded-mode payload does not decode: %v", err)
	}

	// Pushed replicas are refused honestly: the pusher must count a
	// failure, not believe the payload is durable here.
	other := store.KeyOf([]byte("degraded-push"))
	payload := body // a valid result payload, offered under a new key
	if resp := putResult(t, s.ts.URL, other, payload, hexOf(payload)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("PUT to a degraded store: %d, want 503", resp.StatusCode)
	}
}

// TestCheckpointTravelsToPeer: a ring member that misses a snapshot
// locally hedge-fetches it from the member that computed it — over the
// same GET /v1/results/{key} verified path results use — so a retry (or
// a measure-extension) landing on a different worker resumes mid-run
// instead of cold-starting. Worker a computes with checkpoints on;
// worker b, with an empty store and a as its only ring sibling, is asked
// a longer-measure variant of the same spec and must resume from a's
// deepest snapshot, the one at a's window end.
func TestCheckpointTravelsToPeer(t *testing.T) {
	opts := tinyOpts()
	opts.Checkpoints = true
	opts.CheckpointEvery = 2_000

	a := newService(t, opts, Config{Workers: 2}, nil)
	spec := tinySpec("ckpt-travel")
	if resp, body := a.post(t, "/v1/sim", spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("sim on a: %d %s", resp.StatusCode, body)
	}
	// a's window-end snapshot lands after its reply.
	a.runner.WaitWrites()
	if a.runner.CheckpointsWritten() == 0 {
		t.Fatal("a wrote no snapshots")
	}

	ext := spec
	ext.Measure = opts.Measure + 4_000
	// Cold checkpoint-free reference for the extended window.
	coldOpts := tinyOpts()
	cold := exp.NewRunner(coldOpts)
	preparedCold, err := cold.PrepareSpec(ext)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := cold.RunSpecInfo(preparedCold)
	if err != nil {
		t.Fatal(err)
	}

	b := peerService(t, opts, "http://b.invalid", []string{a.ts.URL}, nil)
	resp, body := b.post(t, "/v1/sim", ext)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim on b: %d %s", resp.StatusCode, body)
	}
	var sr simResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Source != "computed" {
		t.Fatalf("source = %q, want computed (a holds no result for the extended window)", sr.Source)
	}
	// a's snapshots cover the shared prefix up to its own measure end,
	// Warmup + 4*every.
	deepest := opts.Warmup + opts.Measure
	if sr.ResumedFrom != deepest {
		t.Errorf("resumed_from = %d, want a's deepest snapshot %d", sr.ResumedFrom, deepest)
	}
	if n := b.runner.CheckpointsRestored(); n != 1 {
		t.Errorf("b restored %d checkpoints, want 1", n)
	}
	got, err := exp.DecodeResult(sr.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("peer-resumed result diverged from a cold run")
	}
}

// TestSnapshotPutLandsInSnapshotNamespace: a pushed snapshot container
// is classified by its bytes and persisted under the snapshot namespace,
// never mixed into the result namespace — and garbage that is neither a
// result nor a snapshot still bounces.
func TestSnapshotPutLandsInSnapshotNamespace(t *testing.T) {
	opts := tinyOpts()
	opts.Checkpoints = true
	opts.CheckpointEvery = 2_000
	a := newService(t, opts, Config{Workers: 2}, nil)
	spec := tinySpec("ckpt-put")
	if resp, body := a.post(t, "/v1/sim", spec); resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: %d %s", resp.StatusCode, body)
	}
	a.runner.WaitWrites() // the reply may precede a's store writes
	prepared, err := a.runner.PrepareSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	pkey := prepared.PrefixKey(prepared.Warmup)
	payload, ok := a.store.GetKind(pkey, store.KindSnapshot)
	if !ok {
		t.Fatal("warmup-boundary snapshot missing from a's store")
	}

	dst := peerService(t, tinyOpts(), "http://self.invalid", nil, nil)
	if resp := putResult(t, dst.ts.URL, pkey, payload, hexOf(payload)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("snapshot PUT: %d, want 204", resp.StatusCode)
	}
	got, ok := dst.store.GetKind(pkey, store.KindSnapshot)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("pushed snapshot not persisted byte-identically in the snapshot namespace")
	}
	if dst.store.Contains(pkey) {
		t.Error("snapshot payload leaked into the result namespace")
	}

	// And GET serves it back from the snapshot namespace, hash declared.
	resp, body := dst.get(t, "/v1/results/"+pkey.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET snapshot: %d", resp.StatusCode)
	}
	if !bytes.Equal(body, payload) || resp.Header.Get(payloadHashHeader) != hexOf(payload) {
		t.Error("GET did not serve the snapshot bytes with their declared hash")
	}
}

// FuzzClassifyPayload: whatever bytes a peer delivers, the classifier and
// the two-layer gate never panic; a result is a result only when
// DecodeResult accepts the bytes, a snapshot only when snap.NewReader
// accepts them or reports a stale version, and anything else is corrupt.
// Behind a correct declared hash verifyPayload agrees with classifyPayload;
// behind a missing or wrong one it refuses as corrupt.
func FuzzClassifyPayload(f *testing.F) {
	cfg := sim.Config{
		Workload: workload.Mixes(1, 2, 3)[1], Mechanism: core.KindDSARP, Density: timing.Gb8,
		Seed: 3, Warmup: 1_000, Measure: 4_000,
	}
	res, err := sim.Run(cfg)
	if err != nil {
		f.Fatal(err)
	}
	result, err := exp.EncodeResult(res)
	if err != nil {
		f.Fatal(err)
	}
	sys, err := sim.NewSystem(cfg)
	if err != nil {
		f.Fatal(err)
	}
	container := sys.Snapshot()
	stale := bytes.Replace(container, []byte(snap.Version), []byte("dsarp-snap-v0"), 1)
	for _, c := range []struct {
		data []byte
		kind store.Kind
		err  error
	}{{result, store.KindResult, nil}, {container, store.KindSnapshot, nil}, {stale, store.KindSnapshot, snap.ErrVersion}} {
		if kind, err := classifyPayload(c.data); kind != c.kind || !errors.Is(err, c.err) {
			f.Fatalf("seed of %d bytes classified as kind %v with error %v, want %v and %v", len(c.data), kind, err, c.kind, c.err)
		}
	}
	for _, seed := range [][]byte{result, container, stale, []byte("dsarpsnap garbage"), []byte(`{"ipc":`), nil} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, err := classifyPayload(data)
		_, decodeErr := exp.DecodeResult(data)
		_, readErr := snap.NewReader(data)
		switch {
		case kind == store.KindResult && err == nil:
			if decodeErr != nil {
				t.Fatalf("classified as a result, but DecodeResult refuses it: %v", decodeErr)
			}
		case kind == store.KindSnapshot:
			if readErr != nil && !errors.Is(readErr, snap.ErrVersion) {
				t.Fatalf("classified as a snapshot, but snap.NewReader refuses it: %v", readErr)
			}
			if (err != nil) != (readErr != nil) || (err != nil && !errors.Is(err, snap.ErrVersion)) {
				t.Fatalf("snapshot classified with error %v; snap.NewReader gives %v", err, readErr)
			}
		case !isCorrupt(err):
			t.Fatalf("classified as kind %v with error %v: neither a payload nor corrupt", kind, err)
		}
		if err != nil && decodeErr == nil {
			t.Fatalf("DecodeResult accepts the bytes, but classifyPayload refuses them: %v", err)
		}

		sum := sha256.Sum256(data)
		if verr := verifyPayload(data, hex.EncodeToString(sum[:])); (verr == nil) != (err == nil) {
			t.Fatalf("verifyPayload under the right hash: %v; classifyPayload: %v", verr, err)
		}
		sum[0] ^= 1
		for _, declared := range []string{"", hex.EncodeToString(sum[:])} {
			if verr := verifyPayload(data, declared); !isCorrupt(verr) {
				t.Fatalf("verifyPayload under declared hash %q: %v, want a corrupt error", declared, verr)
			}
		}
	})
}
