package codec

import (
	"bytes"
	"testing"
)

// TestRegionTableRoundTrip: Body32 and Nested32 record each payload longer
// than a digest at its place in the encoding, and a table written for
// those regions reads back as views of the same bytes.
func TestRegionTableRoundTrip(t *testing.T) {
	a, b := bytes.Repeat([]byte("alpha"), 8), bytes.Repeat([]byte("bravo!"), 8)
	inner := NewWriter(0)
	inner.String("k")
	inner.Body32(b)
	w := NewWriter(0)
	w.U8(7)
	w.Body32(a)
	w.Body32(nil)                           // an empty payload is not a region
	w.Body32(bytes.Repeat([]byte("x"), 32)) // nor one no longer than a digest
	w.Nested32(inner.Bytes(), inner.Bodies())
	enc, bodies := w.Bytes(), w.Bodies()
	if len(bodies) != 2 {
		t.Fatalf("%d regions, want 2", len(bodies))
	}
	for i, want := range [][]byte{a, b} {
		r := bodies[i]
		if &r.Src[0] != &want[0] || !bytes.Equal(enc[r.Off:r.Off+len(r.Src)], want) {
			t.Fatalf("region %d does not mark its payload", i)
		}
	}
	table := AppendRegionTable(nil, bodies)
	got := NewReader(table).RegionTable(enc)
	for i := 0; i < len(bodies); i++ {
		if g, w := got[i], bodies[i]; len(got) != len(bodies) || g.Off != w.Off || len(g.Src) != len(w.Src) {
			t.Fatalf("region %d read back as %d+%d, written %d+%d", i, g.Off, len(g.Src), w.Off, len(w.Src))
		}
	}
	if r := got[1]; &r.Src[0] != &enc[r.Off] {
		t.Fatal("a region read off the wire is not a view of the encoding")
	}
}

// TestRegionTableRefusesOverlapAndOverrun: a table read off the wire names
// each byte of the encoding at most once, or the read fails.
func TestRegionTableRefusesOverlapAndOverrun(t *testing.T) {
	enc := make([]byte, 32)
	table := func(pairs ...uint32) []byte {
		w := NewWriter(0)
		w.U32(uint32(len(pairs) / 2))
		for _, v := range pairs {
			w.U32(v)
		}
		return w.Bytes()
	}
	for name, b := range map[string][]byte{
		"empty region":     table(4, 0),
		"overlap":          table(0, 8, 4, 8),
		"out of order":     table(16, 4, 0, 4),
		"past the end":     table(30, 4),
		"offset past end":  table(33, 1),
		"count past bytes": {0, 1, 0, 0, 0, 0},
	} {
		r := NewReader(b)
		r.RegionTable(enc)
		if r.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	r := NewReader(table(0, 8, 8, 8, 31, 1))
	if got := r.RegionTable(enc); r.Finish() != nil || len(got) != 3 {
		t.Fatalf("refused adjacent regions: %v", r.Err())
	}
}
