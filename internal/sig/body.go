package sig

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"fsnewtop/internal/codec"
)

// BodyStats counts the application-payload bytes one node hashed and the
// payload digests it took from its memo instead.
type BodyStats struct {
	Bytes  uint64 // payload bytes hashed
	Reuses uint64 // payload digests reused from the memo
}

// bodyMemoSize bounds how many payload digests a node remembers. A
// digest is remembered when a verified input is decoded and read back when
// the machine steps that input and its outputs carry the payload on, so
// the memo must span a node's input backlog: it holds the last
// bodyMemoSize/2 to bodyMemoSize digests taken, which missed no more than
// 1.4 % of reuses on the 8 KiB workload and 0.1 % in the 10-member closed
// loop at 64 B (EXPERIMENTS.md, "Hash each payload once per node").
const bodyMemoSize = 128

// bodyEntry is one remembered digest. The memo is keyed on the slice's
// first element; the entry holds the slice, so its memory cannot be
// reused for other bytes while the entry lives, and a slice of another
// length from the same first element is not the same slice.
type bodyEntry struct {
	src    []byte
	digest [32]byte
}

// BodyMemo is one node's memory of the payload digests it has taken, keyed
// on the identity of the slice it hashed (first element and length).
// Payload bytes are immutable inside the stack (DESIGN.md, "Data path: who
// owns a byte"), so a slice hashed once need not be hashed again: an
// output that carries a payload the node decoded from a verified input
// names that slice as its region's source, and the memo answers for it
// after a memcmp of the region against the source — so a payload cloned
// or rewritten on the way is hashed afresh. Two generations of at most
// bodyMemoSize/2 entries each bound it: when the young one fills, the old
// one is dropped whole. The zero value remembers nothing and only counts:
// a node that never re-emits what it receives (a plain receiving
// endpoint, a client) has nothing to reuse. Safe for concurrent use.
type BodyMemo struct {
	bytes  atomic.Uint64
	reuses atomic.Uint64

	mu sync.Mutex
	// gens are the two generations, gens[young] the one filling. Both
	// are nil in a memo that remembers nothing; neither is reassigned.
	gens  [2]map[*byte]bodyEntry
	young int
}

// NewBodyMemo returns a memo that remembers the last bodyMemoSize/2 to
// bodyMemoSize payload digests it took.
func NewBodyMemo() *BodyMemo {
	return &BodyMemo{gens: [2]map[*byte]bodyEntry{
		make(map[*byte]bodyEntry, bodyMemoSize/2),
		make(map[*byte]bodyEntry, bodyMemoSize/2),
	}}
}

// Stats returns the memo's counters.
func (m *BodyMemo) Stats() BodyStats {
	return BodyStats{Bytes: m.bytes.Load(), Reuses: m.reuses.Load()}
}

// bodyBytes counts every payload byte any node hashed, process-wide: the
// one-pass-per-node budget tests fence it, as Digests fences hash calls.
var bodyBytes atomic.Uint64

// BodyBytes returns the number of payload bytes hashed so far by every
// memo in the process. Test instrumentation.
func BodyBytes() uint64 { return bodyBytes.Load() }

// Form returns the digest of enc in digest form: the SHA-256 of the region
// table followed by enc with every region replaced by the SHA-256 of its
// bytes. It pins every byte of enc exactly as Digest(enc) does — the table
// says where each region digest stands, so two encodings with one form
// differ only by a SHA-256 collision — while a payload the node already
// hashed costs a lookup and a memcmp instead of a second pass. Each region
// digest comes from the memo when the region's source is remembered and
// the region's bytes equal the source's, and is computed from the region's
// own bytes otherwise; a computed digest is remembered under the source
// only when the two are equal. The regions must lie inside enc in
// ascending order without overlap, as codec.Reader.RegionTable enforces.
// A nil memo remembers nothing and counts only process-wide (BodyBytes).
func (m *BodyMemo) Form(enc []byte, bodies []codec.Region) [32]byte {
	n := len(bodies)
	size := 4 + len(enc)
	for i := 0; i < n; i++ {
		size += 8 + 32 - len(bodies[i].Src)
	}
	if size <= smallForm {
		var local [smallForm]byte
		return Digest(m.appendForm(local[:0], enc, bodies))
	}
	f := formers.Get().(*former)
	f.buf = m.appendForm(f.buf[:0], enc, bodies)
	d := Digest(f.buf)
	formers.Put(f)
	return d
}

// smallForm is the longest form input assembled on the stack; a longer
// one is assembled in a pooled buffer.
const smallForm = 512

// former is one pooled form buffer, so a long form allocates nothing once
// the pool is warm.
type former struct{ buf []byte }

var formers = sync.Pool{New: func() any { return new(former) }}

// appendForm appends the form's hash input for enc to dst: the region
// table, then enc with every region replaced by its digest.
func (m *BodyMemo) appendForm(dst, enc []byte, bodies []codec.Region) []byte {
	n := len(bodies)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	for i := 0; i < n; i++ {
		r := bodies[i]
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.Off))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Src)))
	}
	if n > 0 && m.remembers() {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	at := 0
	for i := 0; i < n; i++ {
		r := bodies[i]
		end := r.Off + len(r.Src)
		d := m.bodyLocked(enc[r.Off:end], r.Src)
		dst = append(append(dst, enc[at:r.Off]...), d[:]...)
		at = end
	}
	return append(dst, enc[at:]...)
}

// bodyLocked returns the digest of region, whose bytes were copied from
// src: the remembered digest of src when the two are equal, else a fresh
// hash of region, remembered under src when the two are equal. A
// remembering memo's lock is held.
func (m *BodyMemo) bodyLocked(region, src []byte) [32]byte {
	if !m.remembers() || len(src) == 0 || !bytes.Equal(region, src) {
		return hashBody(m, region)
	}
	k := &src[0]
	young, old := m.gens[m.young], m.gens[1-m.young]
	e, ok := young[k]
	if !ok {
		e, ok = old[k]
	}
	if ok && len(e.src) == len(src) {
		m.reuses.Add(1)
		return e.digest
	}
	d := hashBody(m, region)
	young[k] = bodyEntry{src: src, digest: d}
	if len(young) >= bodyMemoSize/2 {
		clear(old)
		m.young = 1 - m.young
	}
	return d
}

// remembers reports whether m keeps digests (NewBodyMemo) rather than
// only counting them.
func (m *BodyMemo) remembers() bool { return m != nil && m.gens[0] != nil }

// hashBody hashes one region, counting its bytes against m (if any) and
// the process.
func hashBody(m *BodyMemo, region []byte) [32]byte {
	if m != nil {
		m.bytes.Add(uint64(len(region)))
	}
	bodyBytes.Add(uint64(len(region)))
	return Digest(region)
}
