package codec

import (
	"strings"
	"testing"
	"time"
)

func BenchmarkWriterRoundTrip(b *testing.B) {
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter(300)
		w.String("gc.data")
		w.U64(uint64(i))
		w.Time(time.Unix(0, int64(i)))
		w.Bytes32(payload)
		r := NewReader(w.Bytes())
		_ = r.String()
		_ = r.U64()
		_ = r.Time()
		_ = r.Bytes32()
		if err := r.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSliceWriters(b *testing.B) {
	members := make([]string, 32)
	for i := range members {
		members[i] = strings.Repeat("m", 12)
	}
	seqs := make([]uint64, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := &Writer{}
		w.StringSlice(members)
		w.U64Slice(seqs)
	}
}

// Allocation budgets. These are regression fences for the hot encode and
// decode paths: sizes are asserted exactly because every extra alloc here
// multiplies across each message each protocol layer exchanges.
func TestAllocBudgets(t *testing.T) {
	payload := make([]byte, 256)

	// Pre-sized writer + in-place read: 1 alloc for the buffer, none to
	// decode.
	if got := testing.AllocsPerRun(200, func() {
		w := NewWriter(300)
		w.String("gc.data")
		w.U64(7)
		w.Bytes32(payload)
		r := NewReader(w.Bytes())
		_ = r.String()
		_ = r.U64()
		_ = r.Bytes32()
	}); got > 2 {
		t.Errorf("pre-sized write + in-place read: %.1f allocs/op, want <= 2", got)
	}

	// Slice writers on a zero-value Writer must pre-size: one buffer
	// growth total, not one per element batch.
	members := make([]string, 32)
	for i := range members {
		members[i] = "m00000000000"
	}
	seqs := make([]uint64, 128)
	if got := testing.AllocsPerRun(200, func() {
		w := &Writer{}
		w.StringSlice(members)
		w.U64Slice(seqs)
	}); got > 2 {
		t.Errorf("slice writers: %.1f allocs/op, want <= 2 growths", got)
	}

	// Bytes32 must not allocate at all.
	w := NewWriter(300)
	w.Bytes32(payload)
	encoded := w.Bytes()
	if got := testing.AllocsPerRun(200, func() {
		r := NewReader(encoded)
		if v := r.Bytes32(); len(v) != len(payload) {
			t.Fatal("short view")
		}
	}); got > 1 { // the Reader itself may escape
		t.Errorf("Bytes32: %.1f allocs/op, want <= 1", got)
	}
}
