package codec

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTripPrimitives(t *testing.T) {
	w := NewWriter(64)
	w.U8(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xDEADBEEF)
	w.U64(1<<63 + 7)
	w.I64(-42)
	w.F64(3.14159)
	w.Duration(1500 * time.Millisecond)

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<63+7 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); got != 3.14159 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Duration(); got != 1500*time.Millisecond {
		t.Errorf("Duration = %v", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestRoundTripTime(t *testing.T) {
	w := &Writer{}
	instant := time.Date(2003, 6, 23, 12, 30, 45, 123456789, time.UTC)
	w.Time(instant)
	r := NewReader(w.Bytes())
	if got := r.Time(); !got.Equal(instant) {
		t.Fatalf("Time = %v, want %v", got, instant)
	}
}

func TestRoundTripBytesAndStrings(t *testing.T) {
	w := &Writer{}
	w.Bytes32([]byte{1, 2, 3})
	w.Bytes32(nil)
	w.String("hello, 世界")
	w.String("")
	w.StringSlice([]string{"a", "bb", ""})
	w.U64Slice([]uint64{7, 0, 1 << 40})

	r := NewReader(w.Bytes())
	if got := r.Bytes32(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes32 = %v", got)
	}
	if got := r.Bytes32(); len(got) != 0 {
		t.Errorf("empty Bytes32 = %v", got)
	}
	if got := r.String(); got != "hello, 世界" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	ss := r.StringSlice()
	if len(ss) != 3 || ss[0] != "a" || ss[1] != "bb" || ss[2] != "" {
		t.Errorf("StringSlice = %v", ss)
	}
	us := r.U64Slice()
	if len(us) != 3 || us[0] != 7 || us[1] != 0 || us[2] != 1<<40 {
		t.Errorf("U64Slice = %v", us)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestBytes32AliasesAndClips pins the ownership contract: Bytes32 returns a
// view of the buffer it reads (bytes are immutable once they enter the
// stack), clipped so that an append by the holder reallocates instead of
// overwriting the field that follows; the MaxBytes and short-buffer
// refusals are what they were when it copied.
func TestBytes32AliasesAndClips(t *testing.T) {
	w := &Writer{}
	w.Bytes32([]byte{9, 9, 9})
	w.Bytes32([]byte{7, 7})
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.Bytes32()
	if len(got) != 3 || &got[0] != &buf[4] {
		t.Fatal("Bytes32 result does not alias the input buffer")
	}
	if cap(got) != len(got) {
		t.Fatalf("cap = %d, want %d: an append would write into the next field", cap(got), len(got))
	}
	_ = append(got, 0xFF)
	if next := r.Bytes32(); !bytes.Equal(next, []byte{7, 7}) || !bytes.Equal(buf[7:11], []byte{0, 0, 0, 2}) {
		t.Fatalf("append through a view reached the buffer: next field %v, prefix %v", next, buf[7:11])
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}

	var huge Writer
	huge.U32(MaxBytes + 1)
	r = NewReader(huge.Bytes())
	if v := r.Bytes32(); v != nil || !errors.Is(r.Err(), ErrTooLong) {
		t.Fatalf("over-long prefix: %v, %v; want nil, ErrTooLong", v, r.Err())
	}
	r = NewReader([]byte{0, 0, 0, 5, 1, 2})
	if v := r.Bytes32(); v != nil || !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("short buffer: %v, %v; want nil, ErrShort", v, r.Err())
	}
}

func TestShortBufferError(t *testing.T) {
	r := NewReader([]byte{0, 0})
	_ = r.U32()
	if !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("Err = %v, want ErrShort", r.Err())
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.U64() // fails
	if got := r.U8(); got != 0 {
		t.Fatalf("read after error returned %d, want 0", got)
	}
	if r.Err() == nil {
		t.Fatal("sticky error lost")
	}
}

func TestCorruptLengthPrefix(t *testing.T) {
	w := &Writer{}
	w.U32(0xFFFFFFFF) // absurd length prefix
	for _, decode := range []func(*Reader){
		func(r *Reader) { r.Bytes32() },
		func(r *Reader) { _ = r.String() },
		func(r *Reader) { r.StringSlice() },
		func(r *Reader) { r.U64Slice() },
	} {
		r := NewReader(w.Bytes())
		decode(r)
		if r.Err() == nil {
			t.Fatal("no error on absurd length prefix")
		}
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	w := &Writer{}
	w.U8(1)
	w.U8(2)
	r := NewReader(w.Bytes())
	_ = r.U8()
	if err := r.Finish(); err == nil {
		t.Fatal("Finish did not report trailing bytes")
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.U64(99)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
	w.U8(5)
	if got := NewReader(w.Bytes()).U8(); got != 5 {
		t.Fatalf("reuse after Reset read %d", got)
	}
}

// Property: any sequence of fields written is read back identically.
func TestQuickRoundTrip(t *testing.T) {
	f := func(a uint8, b bool, c uint32, d uint64, e int64, s string, bs []byte, ss []string, us []uint64) bool {
		w := &Writer{}
		w.U8(a)
		w.Bool(b)
		w.U32(c)
		w.U64(d)
		w.I64(e)
		w.String(s)
		w.Bytes32(bs)
		w.StringSlice(ss)
		w.U64Slice(us)

		r := NewReader(w.Bytes())
		if r.U8() != a || r.Bool() != b || r.U32() != c || r.U64() != d || r.I64() != e {
			return false
		}
		if r.String() != s {
			return false
		}
		if !bytes.Equal(r.Bytes32(), bs) {
			return false
		}
		gotSS := r.StringSlice()
		if len(gotSS) != len(ss) {
			return false
		}
		for i := range ss {
			if gotSS[i] != ss[i] {
				return false
			}
		}
		gotUS := r.U64Slice()
		if len(gotUS) != len(us) {
			return false
		}
		for i := range us {
			if gotUS[i] != us[i] {
				return false
			}
		}
		return r.Finish() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: a reader over arbitrary bytes never panics, whatever we ask of it.
func TestQuickArbitraryInputNeverPanics(t *testing.T) {
	f := func(raw []byte, ops []uint8) bool {
		r := NewReader(raw)
		for _, op := range ops {
			switch op % 10 {
			case 0:
				r.U8()
			case 1:
				r.Bool()
			case 2:
				r.U32()
			case 3:
				r.U64()
			case 4:
				r.I64()
			case 5:
				r.F64()
			case 6:
				_ = r.String()
			case 7:
				r.Bytes32()
			case 8:
				r.StringSlice()
			case 9:
				r.U64Slice()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodingIsDeterministic(t *testing.T) {
	encode := func() []byte {
		w := &Writer{}
		w.String("view-change")
		w.U64Slice([]uint64{3, 1, 2})
		w.StringSlice([]string{"m1", "m2"})
		w.Time(time.Unix(0, 1234567890).UTC())
		return w.Bytes()
	}
	if !bytes.Equal(encode(), encode()) {
		t.Fatal("two encodings of equal values differ; fail-signal comparison would break")
	}
}

// TestRawAndSince: splicing with Raw reproduces field encoding exactly,
// and Since returns the precise byte window a decode consumed — the two
// primitives the sig package's cached wire forms are built on.
func TestRawAndSince(t *testing.T) {
	inner := NewWriter(16)
	inner.String("id")
	inner.Bytes32([]byte("body"))
	wire := inner.Bytes()

	byFields := NewWriter(32)
	byFields.U8(7)
	byFields.String("id")
	byFields.Bytes32([]byte("body"))
	byFields.U64(42)

	byRaw := NewWriter(32)
	byRaw.U8(7)
	byRaw.Raw(wire)
	byRaw.U64(42)
	if string(byRaw.Bytes()) != string(byFields.Bytes()) {
		t.Fatal("Raw splice diverges from field-by-field encoding")
	}

	r := NewReader(byRaw.Bytes())
	if r.U8() != 7 {
		t.Fatal("tag")
	}
	start := r.Pos()
	if r.String() != "id" || string(r.Bytes32()) != "body" {
		t.Fatal("fields")
	}
	if got := r.Since(start); string(got) != string(wire) {
		t.Fatalf("Since window = %q, want the inner wire form", got)
	}
	if r.U64() != 42 {
		t.Fatal("trailer")
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if r.Since(-1) != nil || r.Since(len(byRaw.Bytes())+1) != nil {
		t.Fatal("Since accepted an invalid window")
	}

	// A failed reader yields no window: a partial decode must not be
	// mistaken for a wire form.
	bad := NewReader(wire[:3])
	s := bad.Pos()
	_ = bad.String()
	if bad.Since(s) != nil {
		t.Fatal("Since returned a window from a failed reader")
	}
}
