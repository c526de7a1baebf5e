package serve

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"unsafe"

	"dsarp/internal/exp"
	"dsarp/internal/trace"
)

// bodyMemoBytes bounds the /v1/sim body memo: the sum of its entries'
// entryBytes never exceeds it. README "Daemon memory" compares that count
// with measured heap.
const bodyMemoBytes = 8 << 20

// bodyMemoMaxEntry is the largest entry the memo takes. A body whose
// prepared spec would count more is decoded on every post instead, so
// no one body takes more than a sixty-fourth of the memo.
const bodyMemoMaxEntry = bodyMemoBytes / 64

// memoEntry is a memoized body's prepared spec and what it counts
// against bodyMemoBytes.
type memoEntry struct {
	p     exp.Prepared
	bytes int
}

// entryBytes bounds the heap a memo entry for spec holds: its map slot,
// twice over for the map's spare capacity, and the spec's profile array
// and strings, each rounded up as the allocator may (n/4+16 covers every
// size class and a large allocation's page rounding). Strings a spec
// shares with the benchmark library count too.
func entryBytes(spec exp.SimSpec) int {
	alloc := func(n int) int { return n + n/4 + 16 }
	n := 2*int(sha256.Size+unsafe.Sizeof(memoEntry{})) +
		alloc(cap(spec.Benchmarks)*int(unsafe.Sizeof(trace.Profile{})))
	for _, s := range []string{spec.Name, spec.Mechanism, spec.Variant, spec.Engine} {
		n += alloc(len(s))
	}
	for _, b := range spec.Benchmarks {
		n += alloc(len(b.Name))
	}
	return n
}

// bodyMemo maps the SHA-256 of a /v1/sim body that passed every check to
// the prepared spec the checks produced, so a byte-identical repeat skips
// the decode, the validation and the spec's key hash. A body that failed
// is never stored. When an entry does not fit in bodyMemoBytes, arbitrary
// entries make room. The zero bodyMemo is empty and ready to use.
type bodyMemo struct {
	mu    sync.Mutex
	m     map[[sha256.Size]byte]memoEntry
	bytes int // the sum of the entries' bytes
	// decodes counts the bodies decoded and prepared: the memo's misses.
	decodes atomic.Int64
}

func (m *bodyMemo) get(sum [sha256.Size]byte) (exp.Prepared, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.m[sum]
	return e.p, ok
}

// put memoizes p under sum unless it counts more than bodyMemoMaxEntry.
func (m *bodyMemo) put(sum [sha256.Size]byte, p exp.Prepared) {
	n := entryBytes(p.Spec())
	if n > bodyMemoMaxEntry {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m == nil {
		m.m = map[[sha256.Size]byte]memoEntry{}
	}
	if _, ok := m.m[sum]; ok {
		return // a concurrent miss of the same body stored it first
	}
	for victim, e := range m.m {
		if m.bytes+n <= bodyMemoBytes {
			break
		}
		delete(m.m, victim)
		m.bytes -= e.bytes
	}
	m.m[sum] = memoEntry{p: p, bytes: n}
	m.bytes += n
}

// simBody is a /v1/sim body's prepared spec, with the body's digest and
// whether the memo already held it.
type simBody struct {
	p   exp.Prepared
	sum [sha256.Size]byte
	hit bool
}

// prepareSim turns a /v1/sim body into the prepared spec it describes:
// from the memo when the same bytes passed before, else by decoding the
// body (see decodeBody) and preparing the spec. An error is the client's:
// the handler answers it with 400. A miss is memoized only by remember,
// which the handler calls once the request is admitted, so a refused
// request leaves the memo as it was.
func (s *Server) prepareSim(body []byte) (simBody, error) {
	b := simBody{sum: sha256.Sum256(body)}
	if b.p, b.hit = s.bodies.get(b.sum); b.hit {
		return b, nil
	}
	s.bodies.decodes.Add(1)
	var spec exp.SimSpec
	if err := decodeBody(body, &spec); err != nil {
		return b, err
	}
	var err error
	b.p, err = s.runner.Prepare(spec)
	return b, err
}

// remember memoizes a body prepareSim prepared afresh.
func (s *Server) remember(b simBody) {
	if !b.hit {
		s.bodies.put(b.sum, b.p)
	}
}
