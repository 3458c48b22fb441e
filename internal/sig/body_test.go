package sig

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"fsnewtop/internal/codec"
)

// formByHand is the digest form spelled out: the table, then the encoding
// with each region replaced by its SHA-256.
func formByHand(enc []byte, bodies []codec.Region) [32]byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(bodies)))
	for i := 0; i < len(bodies); i++ {
		r := bodies[i]
		b = binary.BigEndian.AppendUint32(b, uint32(r.Off))
		b = binary.BigEndian.AppendUint32(b, uint32(len(r.Src)))
	}
	at := 0
	for i := 0; i < len(bodies); i++ {
		r := bodies[i]
		d := sha256.Sum256(enc[r.Off : r.Off+len(r.Src)])
		b = append(append(b, enc[at:r.Off]...), d[:]...)
		at = r.Off + len(r.Src)
	}
	return sha256.Sum256(append(b, enc[at:]...))
}

// encodeOne is an encoding carrying src as one body region.
func encodeOne(src []byte) ([]byte, []codec.Region) {
	w := codec.NewWriter(0)
	w.String("hdr")
	w.Body32(src)
	return w.Bytes(), w.Bodies()
}

// TestBodyMemoReusesOnlyTheSameUnchangedBytes: the memo answers for a
// payload only when the region names the very slice it hashed and the
// region's bytes equal it; a clone is hashed afresh, and a region whose
// bytes differ from its source is hashed as it is and never remembered.
func TestBodyMemoReusesOnlyTheSameUnchangedBytes(t *testing.T) {
	src := bytes.Repeat([]byte("s"), 4096)
	m := NewBodyMemo()
	enc, bodies := encodeOne(src)
	if m.Form(enc, bodies) != formByHand(enc, bodies) {
		t.Fatal("the memo's form differs from the form spelled out")
	}
	if st := m.Stats(); st.Bytes != 4096 || st.Reuses != 0 {
		t.Fatalf("first sight: %+v", st)
	}
	enc2, bodies2 := encodeOne(src) // another encoding of the same slice
	if m.Form(enc2, bodies2) != formByHand(enc2, bodies2) {
		t.Fatal("a reused digest changed the form")
	}
	if st := m.Stats(); st.Bytes != 4096 || st.Reuses != 1 {
		t.Fatalf("same slice: %+v, want one reuse and no second pass", st)
	}
	clone := bytes.Clone(src)
	enc3, bodies3 := encodeOne(clone)
	m.Form(enc3, bodies3)
	if st := m.Stats(); st.Bytes != 8192 || st.Reuses != 1 {
		t.Fatalf("a clone: %+v, want it hashed afresh", st)
	}
	bad := bytes.Clone(enc2)
	bad[len(bad)-1] ^= 1 // the encoding no longer holds what its source does
	if m.Form(bad, bodies2) != formByHand(bad, bodies2) {
		t.Fatal("a rewritten region took its source's digest")
	}
	if st := m.Stats(); st.Reuses != 1 || st.Bytes != 3*4096 {
		t.Fatalf("rewritten region: %+v, want it hashed as it is", st)
	}
	if m.Form(enc2, bodies2) != formByHand(enc2, bodies2) {
		t.Fatal("the rewritten region was remembered under its source")
	}
}

// TestBodyMemoIsBounded: the memo remembers at most bodyMemoSize digests
// and at least the last bodyMemoSize/2, forgetting the oldest.
func TestBodyMemoIsBounded(t *testing.T) {
	m := NewBodyMemo()
	srcs := make([][]byte, bodyMemoSize+1)
	for i := range srcs {
		srcs[i] = append([]byte{byte(i), byte(i >> 8)}, make([]byte, 40)...)
		enc, bodies := encodeOne(srcs[i])
		m.Form(enc, bodies)
	}
	if n := len(m.gens[0]) + len(m.gens[1]); n > bodyMemoSize {
		t.Fatalf("%d entries remembered, cap %d", n, bodyMemoSize)
	}
	// Remembered ones first: a miss inserts, and may drop a generation.
	for _, c := range []struct {
		i    int
		want bool
	}{{bodyMemoSize - bodyMemoSize/2, true}, {bodyMemoSize, true}, {0, false}} {
		enc, bodies := encodeOne(srcs[c.i])
		before := m.Stats().Reuses
		m.Form(enc, bodies)
		if got := m.Stats().Reuses > before; got != c.want {
			t.Errorf("entry %d remembered: %v, want %v", c.i, got, c.want)
		}
	}
}

// TestBodyMemoZeroValueCountsOnly: a node with nothing to reuse counts the
// bytes it hashes and remembers none.
func TestBodyMemoZeroValueCountsOnly(t *testing.T) {
	var m BodyMemo
	src := bytes.Repeat([]byte("payload"), 8)
	for i := 0; i < 2; i++ {
		enc, bodies := encodeOne(src)
		m.Form(enc, bodies)
	}
	if st := m.Stats(); st.Bytes != 2*uint64(len(src)) || st.Reuses != 0 {
		t.Fatalf("%+v", st)
	}
}
