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
	inner := NewGatherWriter(0)
	inner.String("k")
	inner.Body32(b)
	w := NewWriter(0)
	w.U8(7)
	w.Body32(a)
	w.Body32(nil)                           // an empty payload is not a region
	w.Body32(bytes.Repeat([]byte("x"), 32)) // nor one no longer than a digest
	w.Nested32(inner.Encoding())
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

// encodeMixed writes one encoding with payloads on both sides of the
// 32-byte rule, a nested gather encoding and bytes after the last region.
func encodeMixed(w *Writer, a, b, c []byte) {
	inner := NewGatherWriter(0)
	inner.String("inner")
	inner.Body32(b)
	inner.Body32(c)
	inner.U8(9)
	w.U8(7)
	w.Body32(a)
	w.Body32([]byte("short"))
	w.Nested32(inner.Encoding())
	w.Body32(c)
	w.String("tail")
}

// TestGatherMatchesContiguous: a gather-form writer copies no region, and
// its encoding stands for exactly the bytes and regions a writer not in
// gather form writes: Flat, the concatenated pieces and the logical
// region offsets all agree.
func TestGatherMatchesContiguous(t *testing.T) {
	a, b, c := bytes.Repeat([]byte("a"), 33), bytes.Repeat([]byte("b"), 8<<10), bytes.Repeat([]byte("c"), 100)
	flat := NewWriter(0)
	encodeMixed(flat, a, b, c)
	gw := NewGatherWriter(0)
	encodeMixed(gw, a, b, c)
	if raw, g := gw.Encoding(); raw != nil || g == nil {
		t.Fatal("a writer that kept regions by reference returned its own bytes as the encoding")
	}
	_, g := gw.Encoding()
	if g.Len() != flat.Len() || gw.Len() != flat.Len() {
		t.Fatalf("gather length %d (writer %d), contiguous %d", g.Len(), gw.Len(), flat.Len())
	}
	if want := flat.Len() - 33 - (8 << 10) - 200; len(g.Own()) != want {
		t.Fatalf("%d own bytes, want %d: a region was copied", len(g.Own()), want)
	}
	if !bytes.Equal(g.Flat(), flat.Bytes()) {
		t.Fatal("Flat differs from the contiguous encoding")
	}
	if !bytes.Equal(bytes.Join(g.AppendPieces(nil), nil), flat.Bytes()) {
		t.Fatal("the pieces do not concatenate to the contiguous encoding")
	}
	want, got := flat.Bodies(), g.Bodies()
	if len(got) != len(want) || len(got) != 4 {
		t.Fatalf("%d gather regions, %d contiguous, want 4", len(got), len(want))
	}
	for i := range want {
		if got[i].Off != want[i].Off || &got[i].Src[0] != &want[i].Src[0] || len(got[i].Src) != len(want[i].Src) {
			t.Fatalf("region %d: gather %d+%d, contiguous %d+%d", i, got[i].Off, len(got[i].Src), want[i].Off, len(want[i].Src))
		}
	}
	for _, p := range g.AppendPieces(nil) {
		if len(p) == 8<<10 && &p[0] != &b[0] {
			t.Fatal("the 8 KiB piece is not the payload itself")
		}
	}
}

// TestGatherFlatOnce: Flat builds the bytes on its first call and hands
// every later caller the same slice.
func TestGatherFlatOnce(t *testing.T) {
	w := NewGatherWriter(0)
	w.Body32(bytes.Repeat([]byte("p"), 64))
	_, g := w.Encoding()
	before := Flattens()
	first := g.Flat()
	for i := 0; i < 4; i++ {
		if b := g.Flat(); &b[0] != &first[0] {
			t.Fatal("Flat built the bytes again")
		}
	}
	if n := Flattens() - before; n != 1 {
		t.Fatalf("%d flattens for five calls, want 1", n)
	}
	if cap(first) != len(first) {
		t.Fatalf("flat bytes cap %d, len %d", cap(first), len(first))
	}
}

// TestGatherWriterWithoutRegions: a gather-form writer that met no payload
// longer than a digest returns its bytes, exactly as a plain writer would.
func TestGatherWriterWithoutRegions(t *testing.T) {
	w := NewGatherWriter(0)
	w.String("k")
	w.Body32(bytes.Repeat([]byte("s"), 32))
	b, g := w.Encoding()
	if g != nil || len(w.Bodies()) != 0 {
		t.Fatal("a 32-byte payload was kept as a region")
	}
	p := NewWriter(0)
	p.String("k")
	p.Body32(bytes.Repeat([]byte("s"), 32))
	if !bytes.Equal(b, p.Bytes()) {
		t.Fatal("bytes differ from a plain writer's")
	}
}
