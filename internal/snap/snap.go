// Package snap is the canonical binary serialization layer for simulation
// snapshots. A snapshot is a versioned, hash-verified container of named,
// length-framed sections; every simulation component appends one section of
// fixed-width little-endian primitives, so the byte layout is a pure
// deterministic function of machine state. The layout is frozen per
// Version: any change to what a component writes must bump Version
// (enforced by the golden snapshot fixture and check-schema-bump.sh, the
// same discipline that guards exp.SchemaVersion).
package snap

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Version names the snapshot wire layout. It is deliberately separate from
// exp.SchemaVersion: results and snapshots evolve independently, and a
// snapshot layout change must not invalidate served results. Restoring a
// snapshot with a mismatched version is refused — the run recomputes from
// cycle 0 instead.
const Version = "dsarp-snap-v2"

// magic leads every snapshot so a snapshot can never be confused with a
// store result envelope or any other artifact.
const magic = "DSNAP"

// headerLen is the fixed size of a snapshot's header: magic, the
// length-prefixed Version, the payload length, and the payload SHA-256.
const headerLen = len(magic) + 8 + len(Version) + 8 + sha256.Size

// Codec is implemented by every component whose mutable state round-trips
// through a snapshot section.
type Codec interface {
	AppendState(w *Writer)
	LoadState(r *Reader) error
}

// Writer builds a snapshot. Sections are opened with Section and closed
// implicitly by the next Section call or by Finish. All primitives are
// fixed-width little-endian so the layout is platform-independent and
// byte-deterministic.
type Writer struct {
	buf     []byte // the header's reserved space, then the payload
	secName string
	secOff  int // start of the current section's body length field
}

// NewWriter returns an empty snapshot writer whose buffer has room for a
// snapshot of sizeHint bytes, so that one sized right is built without
// regrowing the buffer. The hint changes no byte of the snapshot.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, headerLen, max(sizeHint, headerLen))}
}

// Section begins a new named section. The previous section, if any, is
// closed and its length frame finalized.
func (w *Writer) Section(name string) {
	w.closeSection()
	w.secName = name
	w.Str(name)
	w.secOff = len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0, 0, 0, 0, 0) // body length placeholder
}

func (w *Writer) closeSection() {
	if w.secName == "" {
		return
	}
	body := uint64(len(w.buf) - w.secOff - 8)
	binary.LittleEndian.PutUint64(w.buf[w.secOff:], body)
	w.secName = ""
}

// U64 appends an unsigned 64-bit value.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends a signed 64-bit value.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int (as 64-bit).
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// F64 appends a float64 by its exact IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Finish closes the last section and returns the full snapshot: a header
// (magic, Version, payload length, payload SHA-256) followed by the
// payload. The header fills the space NewWriter reserved, so the payload
// is not copied.
func (w *Writer) Finish() []byte {
	w.closeSection()
	payload := w.buf[headerLen:]
	sum := sha256.Sum256(payload)
	hdr := w.buf[:headerLen]
	n := copy(hdr, magic)
	binary.LittleEndian.PutUint64(hdr[n:], uint64(len(Version)))
	n += 8
	n += copy(hdr[n:], Version)
	binary.LittleEndian.PutUint64(hdr[n:], uint64(len(payload)))
	n += 8
	copy(hdr[n:], sum[:])
	return w.buf
}

// ErrVersion reports a snapshot whose layout version does not match this
// binary's snap.Version. Stale snapshots recompute; they never restore.
var ErrVersion = errors.New("snap: snapshot version mismatch")

// Reader decodes a snapshot produced by Writer. Errors are sticky: after
// the first failure every subsequent read returns the zero value and Err
// reports the original cause. Sections must be consumed in the order they
// were written, and Close verifies the payload was consumed exactly.
type Reader struct {
	buf    []byte
	off    int
	secEnd int // exclusive end of the current section's body
	err    error
}

// NewReader validates the header (magic, version, length, payload hash)
// and returns a reader positioned at the first section. A version mismatch
// returns ErrVersion (wrapped with the found version).
func NewReader(data []byte) (*Reader, error) {
	if len(data) < len(magic)+8 || string(data[:len(magic)]) != magic {
		return nil, errors.New("snap: not a snapshot (bad magic)")
	}
	off := len(magic)
	vlen := binary.LittleEndian.Uint64(data[off:])
	off += 8
	if vlen > uint64(len(data)-off) {
		return nil, errors.New("snap: truncated version")
	}
	ver := string(data[off : off+int(vlen)])
	off += int(vlen)
	if ver != Version {
		return nil, fmt.Errorf("%w: snapshot has %q, this binary expects %q", ErrVersion, ver, Version)
	}
	if len(data)-off < 8+32 {
		return nil, errors.New("snap: truncated header")
	}
	plen := binary.LittleEndian.Uint64(data[off:])
	off += 8
	var sum [32]byte
	copy(sum[:], data[off:off+32])
	off += 32
	if plen != uint64(len(data)-off) {
		return nil, fmt.Errorf("snap: payload length %d, have %d bytes", plen, len(data)-off)
	}
	payload := data[off:]
	if sha256.Sum256(payload) != sum {
		return nil, errors.New("snap: payload hash mismatch")
	}
	return &Reader{buf: payload, secEnd: -1}, nil
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Section advances to the next section and verifies its name. Any bytes
// left unconsumed in the previous section are an error: a component that
// wrote more than it read back signals layout drift, not slack.
func (r *Reader) Section(name string) error {
	if r.err != nil {
		return r.err
	}
	if r.secEnd >= 0 && r.off != r.secEnd {
		r.fail(fmt.Errorf("snap: section before %q has %d unread bytes", name, r.secEnd-r.off))
		return r.err
	}
	r.secEnd = -1
	got := r.Str()
	if r.err != nil {
		return r.err
	}
	if got != name {
		r.fail(fmt.Errorf("snap: section %q, want %q", got, name))
		return r.err
	}
	body := r.U64()
	if r.err != nil {
		return r.err
	}
	if body > uint64(len(r.buf)-r.off) {
		r.fail(fmt.Errorf("snap: section %q body overruns payload", name))
		return r.err
	}
	r.secEnd = r.off + int(body)
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	end := len(r.buf)
	if r.secEnd >= 0 {
		end = r.secEnd
	}
	if n > end-r.off {
		r.fail(errors.New("snap: read past end of section"))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U64 reads an unsigned 64-bit value.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a signed 64-bit value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads a boolean.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("snap: invalid bool byte %#x", b[0]))
		return false
	}
}

// F64 reads a float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.U64()
	end := len(r.buf)
	if r.secEnd >= 0 {
		end = r.secEnd
	}
	if r.err == nil && n > uint64(end-r.off) {
		r.fail(errors.New("snap: string overruns section"))
	}
	b := r.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// Close verifies the final section and the payload were consumed exactly
// and returns the sticky error state.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.secEnd >= 0 && r.off != r.secEnd {
		return fmt.Errorf("snap: last section has %d unread bytes", r.secEnd-r.off)
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("snap: %d trailing bytes after last section", len(r.buf)-r.off)
	}
	return nil
}
