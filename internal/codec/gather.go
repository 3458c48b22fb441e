package codec

import (
	"sync"
	"sync/atomic"
)

// NewGatherWriter returns a Writer in gather form with capacity hint n
// for its own bytes: Body32 and Nested32 keep every body region by
// reference instead of copying it, so an application payload crosses an
// encoder without a copy. Everything else is written as by NewWriter, and
// Encoding returns the result. Regions are payload bytes, immutable once
// they enter the stack (DESIGN.md, "Data path: who owns a byte"), so the
// encoding may reference them for as long as it lives.
func NewGatherWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n), gather: true}
}

// Encoding returns the writer's encoding: the bytes themselves (g nil)
// when it keeps no region by reference, which a writer not in gather form
// never does, or else the gather form (b nil). The result aliases the
// writer.
func (w *Writer) Encoding() (b []byte, g *Gather) {
	if w.held == 0 {
		return w.buf, nil
	}
	return nil, &Gather{own: w.buf, bodies: w.bodies, size: len(w.buf) + w.held}
}

// Gather is an encoding in gather form: its own bytes, everything outside
// its body regions, and the regions themselves by reference, each Off its
// logical offset in the encoding. The bytes the encoding stands for are
// the own bytes with each region's Src spliced in at its offset; Flat
// builds them at most once, however many times it is asked, and
// AppendPieces lists them for a vectored write without building them.
// Nothing writes to a Gather's bytes after it is built; it is safe for
// concurrent use.
type Gather struct {
	own    []byte
	bodies []Region
	size   int

	once sync.Once
	flat []byte
}

// NewGather returns the gather encoding whose own bytes are own and whose
// body regions are bodies, in ascending, disjoint order of logical
// offset. A caller that appends to the own bytes of an encoding (a
// signature after its region table) builds the longer encoding this way.
func NewGather(own []byte, bodies []Region) *Gather {
	size := len(own)
	for _, r := range bodies {
		size += len(r.Src)
	}
	return &Gather{own: own, bodies: bodies, size: size}
}

// Len returns the length of the encoding.
func (g *Gather) Len() int { return g.size }

// Own returns the encoding's own bytes: everything outside its regions.
func (g *Gather) Own() []byte { return g.own }

// Held returns how many of the encoding's bytes its regions hold by
// reference: Len less the own bytes.
func (g *Gather) Held() int { return g.size - len(g.own) }

// Bodies returns the encoding's body regions, logical offsets.
func (g *Gather) Bodies() []Region { return g.bodies }

// segments calls f for each region in order with the own bytes that
// precede it; the own bytes after the last region are g.own from the sum
// of the segments' lengths on.
func (g *Gather) segments(f func(own []byte, r Region)) {
	at, logical := 0, 0
	for _, r := range g.bodies {
		n := r.Off - logical
		f(g.own[at:at+n], r)
		at += n
		logical = r.Off + len(r.Src)
	}
}

// AppendPieces appends the encoding's pieces to dst in order — own bytes
// and regions alternating, empty pieces left out — and returns the
// extended slice. The pieces are g's own slices: read-only.
func (g *Gather) AppendPieces(dst [][]byte) [][]byte {
	at := 0
	g.segments(func(own []byte, r Region) {
		if len(own) > 0 {
			dst = append(dst, own)
		}
		dst = append(dst, r.Src)
		at += len(own)
	})
	if at < len(g.own) {
		dst = append(dst, g.own[at:])
	}
	return dst
}

// Flat returns the encoding as contiguous bytes, built on the first call
// and shared by every later one: a consumer that needs the bytes in one
// piece gets what a writer not in gather form would have written.
func (g *Gather) Flat() []byte {
	g.once.Do(func() {
		flattens.Add(1)
		flat := make([]byte, 0, g.size)
		at := 0
		g.segments(func(own []byte, r Region) {
			flat = append(append(flat, own...), r.Src...)
			at += len(own)
		})
		g.flat = append(flat, g.own[at:]...)
	})
	return g.flat
}

// flattens counts the gather encodings built contiguous, process-wide.
var flattens atomic.Uint64

// Flattens returns how many gather encodings Flat has built so far in
// the process. Test instrumentation.
func Flattens() uint64 { return flattens.Load() }
