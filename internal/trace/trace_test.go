package trace

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryAndRingNoOp(t *testing.T) {
	var reg *Registry
	r := reg.Ring("n")
	if r != nil {
		t.Fatal("nil registry must hand out nil rings")
	}
	r.Emit(EvOrder, 1, 2, "k") // must not panic
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil ring snapshot = %v, want nil", got)
	}
	if reg.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if r.Name() != "" {
		t.Fatal("nil ring must have empty name")
	}
}

func TestRingKeepsEmissionOrderAndWraps(t *testing.T) {
	reg := NewRegistry(8, nil)
	r := reg.Ring("n")
	for i := 0; i < 20; i++ {
		r.Emit(EvOrder, uint64(i), 0, "")
	}
	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("snapshot holds %d events, want the last 8", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(12 + i); ev.A != want || ev.Seq != want {
			t.Fatalf("event %d = (A=%d Seq=%d), want %d", i, ev.A, ev.Seq, want)
		}
	}
}

// TestOverwrittenCountsWrappedEvents: a 4-slot ring handed 10 events has
// lost 6, and the timeline's header says so for its node.
func TestOverwrittenCountsWrappedEvents(t *testing.T) {
	reg := NewRegistry(4, nil)
	r, quiet := reg.Ring("n"), reg.Ring("q")
	for i := 0; i < 10; i++ {
		if got, want := r.Overwritten(), uint64(max(0, i-4)); got != want {
			t.Fatalf("after %d emits: Overwritten = %d, want %d", i, got, want)
		}
		r.Emit(EvOrder, uint64(i), 0, "")
	}
	if got := r.Overwritten(); got != 6 {
		t.Fatalf("Overwritten = %d, want 6", got)
	}
	if got := quiet.Overwritten(); got != 0 {
		t.Fatalf("an unwrapped ring reports %d overwritten", got)
	}
	var nilRing *Ring
	if nilRing.Overwritten() != 0 {
		t.Fatal("nil ring reports overwritten events")
	}
	var b strings.Builder
	if err := reg.WriteTimeline(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# n: 6 events overwritten\n", "# q: 0 events overwritten\n"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("timeline lacks %q:\n%s", want, b.String())
		}
	}
}

func TestRegistryMergesByTime(t *testing.T) {
	now := time.Date(2003, 6, 23, 0, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	clk := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(time.Millisecond)
		return now
	}
	reg := NewRegistry(0, clk)
	a, b := reg.Ring("a"), reg.Ring("b")
	a.Emit(EvOrder, 1, 0, "")
	b.Emit(EvAckIn, 2, 0, "")
	a.Emit(EvRoundClose, 3, 0, "")
	evs := reg.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("merged %d events, want 3", len(evs))
	}
	wantNodes := []string{"a", "b", "a"}
	for i, ev := range evs {
		if ev.Node != wantNodes[i] {
			t.Fatalf("merge order %d = %s, want %s", i, ev.Node, wantNodes[i])
		}
	}
}

func TestConcurrentEmitAndSnapshot(t *testing.T) {
	reg := NewRegistry(64, nil)
	r := reg.Ring("n")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					r.Emit(EvCompareArm, uint64(i), 0, "note")
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		evs := r.Snapshot()
		for j := 1; j < len(evs); j++ {
			if evs[j].Seq <= evs[j-1].Seq {
				t.Fatalf("snapshot out of order at %d: %d after %d", j, evs[j].Seq, evs[j-1].Seq)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestDumpWritesTimelineAndStacks(t *testing.T) {
	reg := NewRegistry(0, nil)
	reg.Ring("m00#L").Emit(EvFailSignal, 0, 0, "output 3 not matched")
	dir := t.TempDir()
	path, err := reg.Dump(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("dump landed in %s, want %s", filepath.Dir(path), dir)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	for _, want := range []string{"m00#L", "fail-signal", "output 3 not matched", "goroutine stacks", "TestDumpWritesTimelineAndStacks"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dump missing %q:\n%s", want, body)
		}
	}
}
