package codec

import (
	"encoding/binary"
	"fmt"
)

// Region marks one application payload inside an encoding: the bytes at
// [Off, Off+len(Src)) are Src's, copied from it or, in gather form (see
// Gather), held by reference to it. A fail-signal node hashes
// each payload once (DESIGN.md, "Data path: who owns a byte"): the encoders
// of messages that carry an application payload record where they put it,
// so the node that signs or checks the encoding can take that payload's
// digest from a memo keyed on Src instead of hashing the bytes again.
// An encoding's regions are a side table, in ascending offset order: they
// are never part of the encoding itself.
type Region struct {
	Off int    // offset of the payload's first byte in the encoding
	Src []byte // the payload's source slice; its length is the region's
}

// Body32 appends b like Bytes32 and records it as a body region, unless
// it is no longer than the SHA-256 digest (32 bytes) that would stand for
// it: such a payload is hashed inline with the rest of its encoding,
// which is cheaper than hashing it apart, remembering the digest and then
// hashing the digest. In gather form a region is kept by reference.
func (w *Writer) Body32(b []byte) {
	w.U32(uint32(len(b)))
	if Held(b) == 0 {
		w.buf = append(w.buf, b...)
		return
	}
	w.region(b)
}

// region records b as a body region at the writer's end, copying it in
// unless the writer is in gather form.
func (w *Writer) region(b []byte) {
	w.bodies = append(w.bodies, Region{Off: w.Len(), Src: b})
	if w.gather {
		w.held += len(b)
		return
	}
	w.buf = append(w.buf, b...)
}

// Nested32 appends an encoding like Bytes32: b, or g when g is not nil.
// g's body regions are recorded at their place in this encoding — kept by
// reference in gather form, copied in otherwise — so a gather encoding
// nests in another without its payloads being copied.
func (w *Writer) Nested32(b []byte, g *Gather) {
	if g == nil {
		w.Bytes32(b)
		return
	}
	w.U32(uint32(g.size))
	at := 0 // the next of g's own bytes to append
	g.segments(func(own []byte, r Region) {
		w.buf = append(w.buf, own...)
		at += len(own)
		w.region(r.Src)
	})
	w.buf = append(w.buf, g.own[at:]...)
}

// Held returns how many of b's bytes a gather-form Writer keeps by
// reference when b is a body (Body32): all of them when b is longer than
// the 32-byte digest that stands for it, else none.
func Held(b []byte) int {
	if len(b) > 32 {
		return len(b)
	}
	return 0
}

// Bodies returns the body regions recorded so far, offsets relative to the
// start of the encoding (in gather form, of the bytes it stands for).
func (w *Writer) Bodies() []Region { return w.bodies }

// GrowBodies makes room for n body regions in a writer that has recorded
// none, so one that knows how many payloads it will nest records them in
// one allocation.
func (w *Writer) GrowBodies(n int) {
	if w.bodies == nil && n > 0 {
		w.bodies = make([]Region, 0, n)
	}
}

// AppendRegionTable appends t to dst as a region table: a count, then
// each region's offset and length.
func AppendRegionTable(dst []byte, t []Region) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(t)))
	for _, r := range t {
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.Off))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Src)))
	}
	return dst
}

// RegionTable appends t as a region table (see AppendRegionTable).
func (w *Writer) RegionTable(t []Region) { w.buf = AppendRegionTable(w.buf, t) }

// SkipRegionTable consumes a region table without reading it.
func (r *Reader) SkipRegionTable() {
	n := int(r.U32())
	if r.err == nil && !r.fail(8*n) {
		r.off += 8 * n
	}
}

// RegionTable reads a table written by Writer.RegionTable for the encoding
// enc, each region's Src a view of enc. It fails (sticky) unless the
// regions are non-empty, in ascending order, disjoint and inside enc, so a
// table read off the wire names each byte of enc at most once.
func (r *Reader) RegionTable(enc []byte) []Region {
	n := int(r.U32())
	if r.err != nil || n == 0 {
		return nil
	}
	if n > r.Remaining()/8 {
		r.err = fmt.Errorf("%w: region table of %d entries in %d bytes", ErrShort, n, r.Remaining())
		return nil
	}
	t := make([]Region, 0, n)
	end := 0
	for i := 0; i < n; i++ {
		off, l := int(r.U32()), int(r.U32())
		if r.err != nil {
			return nil
		}
		if l == 0 || off < end || off > len(enc) || l > len(enc)-off {
			r.err = fmt.Errorf("codec: region %d [%d,+%d) out of order or outside %d bytes", i, off, l, len(enc))
			return nil
		}
		t = append(t, Region{Off: off, Src: enc[off : off+l : off+l]})
		end = off + l
	}
	return t
}
