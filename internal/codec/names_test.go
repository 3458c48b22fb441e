package codec

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func encodeName(s string) []byte {
	w := &Writer{}
	w.String(s)
	return w.Bytes()
}

// TestNameFromTable: a name the table holds decodes to the table's copy
// and costs no allocation.
func TestNameFromTable(t *testing.T) {
	Intern("names-test.kind")
	wire := encodeName("names-test.kind")
	if got := NewReader(wire).Name(); got != "names-test.kind" {
		t.Fatalf("Name = %q", got)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		r := Reader{buf: wire}
		if r.Name() == "" {
			t.Fatal("empty name")
		}
	}); allocs != 0 {
		t.Errorf("decoding a known name: %.1f allocs/op, want 0", allocs)
	}
}

// TestNameMissingIsFreshCopy: a name the table lacks decodes to an equal,
// freshly allocated string, exactly as String would.
func TestNameMissingIsFreshCopy(t *testing.T) {
	wire := encodeName("names-test.absent")
	var got string
	if allocs := testing.AllocsPerRun(200, func() {
		r := Reader{buf: wire}
		got = r.Name()
	}); allocs != 1 {
		t.Errorf("decoding an unknown name: %.1f allocs/op, want 1 (its copy)", allocs)
	}
	if got != "names-test.absent" {
		t.Fatalf("Name = %q", got)
	}
}

// TestNameNeverGrowsFromWire: the table holds what the program interned;
// ten thousand novel names read off the wire leave it as it was.
func TestNameNeverGrowsFromWire(t *testing.T) {
	Intern("names-test.known")
	before := names.len()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("names-test.novel-%d", i)
		if got := NewReader(encodeName(name)).Name(); got != name {
			t.Fatalf("Name = %q, want %q", got, name)
		}
	}
	if after := names.len(); after != before {
		t.Fatalf("table grew from %d to %d names on wire input", before, after)
	}
}

// TestNameOutlivesItsBuffer: a decoded name never aliases the message it
// came from, whether or not the table knows it.
func TestNameOutlivesItsBuffer(t *testing.T) {
	Intern("names-test.alias")
	for _, name := range []string{"names-test.alias", "names-test.unaliased"} {
		wire := encodeName(name)
		got := NewReader(wire).Name()
		for i := range wire {
			wire[i] = 'X'
		}
		if got != name {
			t.Fatalf("decoded %q became %q after its buffer was overwritten", name, got)
		}
	}
}

// TestInternIsBounded: past its limit a table stops growing and adding
// is a no-op, so a process that keeps registering new names holds a
// bounded table; a name left out still decodes, as a copy.
func TestInternIsBounded(t *testing.T) {
	tab := nameTable{limit: 8}
	for i := 0; i < 20; i++ {
		tab.add(fmt.Sprintf("names-test.fill-%d", i))
	}
	if got := tab.len(); got != 8 {
		t.Fatalf("table holds %d names, bound is 8", got)
	}
	if got := tab.lookup([]byte("names-test.fill-19")); got != "names-test.fill-19" {
		t.Fatalf("lookup past the bound = %q", got)
	}
}

// TestSliceCountBoundsPreallocation: a count prefix is not trusted for
// sizing. A 9-byte message claiming 1,024 elements fails to decode
// without allocating the 16 KiB (strings) or 8 KiB (uint64s) its count
// asks for.
func TestSliceCountBoundsPreallocation(t *testing.T) {
	msg := []byte{0, 0, 4, 0, 0, 0, 0, 1, 'x'} // count 1024, then one 1-byte string
	for _, c := range []struct {
		name   string
		decode func(*Reader)
	}{
		{"StringSlice", func(r *Reader) { r.StringSlice() }},
		{"U64Slice", func(r *Reader) { r.U64Slice() }},
	} {
		r := NewReader(msg)
		c.decode(r)
		if r.Err() == nil {
			t.Fatalf("%s: a 9-byte message claiming 1024 elements decoded", c.name)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			c.decode(NewReader(msg))
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= 1024 {
			t.Errorf("%s: %d bytes allocated per failed decode, want < 1 KiB", c.name, got)
		}
	}
}

// TestNameTableConcurrent: decoders look names up while rosters add to
// the table; every lookup returns the name it was asked for.
func TestNameTableConcurrent(t *testing.T) {
	tab := nameTable{limit: 1 << 10}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("names-test.concurrent-%d-%d", g, i)
				tab.add(name)
				for j := 0; j <= i; j += 17 {
					want := fmt.Sprintf("names-test.concurrent-%d-%d", (g+1)%4, j)
					if got := tab.lookup([]byte(want)); got != want {
						t.Errorf("lookup(%q) = %q", want, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := tab.len(); got != 800 {
		t.Fatalf("table holds %d names, want 800", got)
	}
}
