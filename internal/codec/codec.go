// Package codec implements the compact binary wire format used by every
// message type in this repository: fail-signal envelopes, group
// communication protocol messages, ORB requests, and application payloads.
//
// The format is deliberately simple and deterministic: fixed-width
// big-endian integers and length-prefixed byte strings, with no reflection
// and no per-message allocation beyond the output buffer. Determinism
// matters here because fail-signal output comparison (Section 2.1 of the
// paper) works by comparing the byte encodings of replica outputs: if the
// encoding of equal values could differ, correct replica pairs would
// fail-signal spuriously.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrShort is returned (wrapped) when a read runs past the end of input.
var ErrShort = errors.New("codec: short buffer")

// ErrTooLong is returned when a length prefix exceeds MaxBytes.
var ErrTooLong = errors.New("codec: byte string exceeds maximum length")

// MaxBytes bounds any single length-prefixed field. It protects receivers
// from allocating unbounded memory on a corrupt (or Byzantine) length
// prefix.
const MaxBytes = 64 << 20

// Writer accumulates an encoded message. The zero value is ready to use.
type Writer struct {
	buf    []byte
	bodies []Region // see Body32
}

// NewWriter returns a Writer with capacity hint n.
func NewWriter(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// Bytes returns the encoded bytes. The slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the writer for reuse.
func (w *Writer) Reset() { w.buf, w.bodies = w.buf[:0], nil }

// U8 appends a single byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// I64 appends a big-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends an IEEE-754 float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Time appends a time instant as nanoseconds since the Unix epoch.
func (w *Writer) Time(t time.Time) { w.I64(t.UnixNano()) }

// Duration appends a duration in nanoseconds.
func (w *Writer) Duration(d time.Duration) { w.I64(int64(d)) }

// Bytes32 appends a uint32 length prefix followed by b.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Raw appends b verbatim, with no length prefix. It exists for callers
// that splice an already-encoded message (a cached envelope wire form)
// into a larger one without re-encoding it field by field.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// grow ensures capacity for n more bytes, reallocating at most once —
// slice writers call it up front so a large slice costs one growth
// instead of O(log n) incremental ones.
func (w *Writer) grow(n int) {
	if cap(w.buf)-len(w.buf) >= n {
		return
	}
	grown := make([]byte, len(w.buf), len(w.buf)+n)
	copy(grown, w.buf)
	w.buf = grown
}

// StringSlice appends a count-prefixed slice of strings.
func (w *Writer) StringSlice(ss []string) {
	total := 4
	for _, s := range ss {
		total += 4 + len(s)
	}
	w.grow(total)
	w.U32(uint32(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// U64Slice appends a count-prefixed slice of uint64s.
func (w *Writer) U64Slice(vs []uint64) {
	w.grow(4 + 8*len(vs))
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// Reader decodes a message produced by Writer. It carries a sticky error:
// after the first failure every subsequent read returns a zero value, and
// Err reports the cause. This lets decoders be written as straight-line
// field reads with a single error check at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. The reader does not copy b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Pos returns the current read offset, for use with Since.
func (r *Reader) Pos() int { return r.off }

// Since returns the raw bytes consumed since start (a prior Pos result):
// the exact wire form of whatever was decoded in between. The result is a
// view aliasing the reader's buffer — valid as long as that buffer is
// neither mutated nor recycled — and is nil if the reader has failed or
// start is not a valid prior offset.
func (r *Reader) Since(start int) []byte {
	if r.err != nil || start < 0 || start > r.off {
		return nil
	}
	return r.buf[start:r.off:r.off]
}

// Finish returns the sticky error, or an error if unread bytes remain.
// Call it at the end of a complete-message decode.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("codec: %d trailing bytes after message", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(n int) bool {
	if r.err != nil {
		return true
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrShort, n, r.off, len(r.buf))
		return true
	}
	return false
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.fail(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// Bool reads a one-byte boolean. Any non-zero byte is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if r.fail(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if r.fail(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// I64 reads a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Time reads a time instant written by Writer.Time. The result is in UTC.
func (r *Reader) Time() time.Time {
	ns := r.I64()
	if r.err != nil {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// Duration reads a duration written by Writer.Duration.
func (r *Reader) Duration() time.Duration { return time.Duration(r.I64()) }

// Bytes32 reads a length-prefixed byte string without copying: the result
// is a view of the reader's buffer. Bytes are immutable once they enter
// the stack (DESIGN.md, "Data path: who owns a byte"), so a decoded
// message may alias the transport message it came from for as long as it
// likes; the view's capacity is clipped to its length, so an append by any
// holder reallocates instead of writing into the bytes that follow. A
// decoder that keeps a small field out of a large frame copies that field
// itself, so the frame can be collected.
func (r *Reader) Bytes32() []byte {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	if n > MaxBytes {
		r.err = fmt.Errorf("%w: %d bytes", ErrTooLong, n)
		return nil
	}
	if r.fail(n) {
		return nil
	}
	out := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U32())
	if r.err != nil {
		return ""
	}
	if n > MaxBytes {
		r.err = fmt.Errorf("%w: %d bytes", ErrTooLong, n)
		return ""
	}
	if r.fail(n) {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// Name reads a length-prefixed string that names something the process
// already knows — a message kind, a member, a signer — and returns the
// name table's copy of it (see Intern), so decoding a known name allocates
// nothing. A name the table does not hold is copied, exactly as String
// would; nothing read from the wire is ever added to the table.
func (r *Reader) Name() string { return NameOf(r.Bytes32()) }

// sliceCap is how many elements a count-prefixed slice of n elements,
// each at least size bytes on the wire, may preallocate: no more than the
// unread bytes can hold, so a corrupt count costs a failed decode, not an
// allocation sized by the count.
func (r *Reader) sliceCap(n, size int) int {
	return min(n, r.Remaining()/size)
}

// StringSlice reads a count-prefixed slice of strings.
func (r *Reader) StringSlice() []string {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	if n > MaxBytes {
		r.err = fmt.Errorf("%w: %d elements", ErrTooLong, n)
		return nil
	}
	out := make([]string, 0, r.sliceCap(n, 4))
	for i := 0; i < n; i++ {
		out = append(out, r.String())
		if r.err != nil {
			return nil
		}
	}
	return out
}

// SkipStringSlice consumes a count-prefixed slice of strings without
// building it. It fails exactly where StringSlice would, so a decoder that
// does not read a field still refuses every encoding that decoder refused.
func (r *Reader) SkipStringSlice() {
	n := int(r.U32())
	if r.err != nil {
		return
	}
	if n > MaxBytes {
		r.err = fmt.Errorf("%w: %d elements", ErrTooLong, n)
		return
	}
	for i := 0; i < n && r.err == nil; i++ {
		r.Bytes32()
	}
}

// U64Slice reads a count-prefixed slice of uint64s.
func (r *Reader) U64Slice() []uint64 {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	if n > MaxBytes {
		r.err = fmt.Errorf("%w: %d elements", ErrTooLong, n)
		return nil
	}
	out := make([]uint64, 0, r.sliceCap(n, 8))
	for i := 0; i < n; i++ {
		out = append(out, r.U64())
		if r.err != nil {
			return nil
		}
	}
	return out
}
