package failsignal

import (
	"reflect"
	"testing"
	"time"

	"fsnewtop/internal/clock"
)

// newTestWatchdog returns an empty watchdog on a manual clock.
func newTestWatchdog() (*watchdog, *clock.Manual) {
	clk := clock.NewManual()
	return &watchdog{clk: clk}, clk
}

// due pops every watch due at the clock's now, in firing order, as the
// replica's loop does between machine steps.
func due(wd *watchdog, clk *clock.Manual) []*watch {
	var out []*watch
	for w := wd.popDue(clk.Now().UnixNano()); w != nil; w = wd.popDue(clk.Now().UnixNano()) {
		out = append(out, w)
	}
	return out
}

func oseqs(ws []*watch) []uint64 {
	out := []uint64{}
	for _, w := range ws {
		out = append(out, w.oseq)
	}
	return out
}

// TestWatchdogClockStepFiresDueWatchesInOrder steps the clock far past
// several deadlines in one jump — the degenerate clock step — and expects
// every due watch to pop, in deadline order, from the one check.
func TestWatchdogClockStepFiresDueWatchesInOrder(t *testing.T) {
	wd, clk := newTestWatchdog()
	wd.arm(watchCompare, inputKey{}, 1, 50*time.Millisecond, 0)
	wd.arm(watchCompare, inputKey{}, 2, 20*time.Millisecond, 0)
	wd.arm(watchCompare, inputKey{}, 3, 500*time.Millisecond, 0)
	wd.arm(watchCompare, inputKey{}, 4, 20*time.Millisecond, 0) // ties fire in arming order
	if got := due(wd, clk); len(got) != 0 {
		t.Fatalf("%v due before the clock moved", oseqs(got))
	}
	clk.Advance(10 * time.Second)
	if got, want := oseqs(due(wd, clk)), []uint64{2, 4, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
	if wd.next() != 0 {
		t.Fatal("heap not empty after every watch fired")
	}
}

// TestWatchdogRearmUnderClockStep re-arms a fired watch (the replica's
// progress-aware rule) right after the clock stepped 10s forward. The new
// deadline must anchor to the stepped clock: it is not due at once, and
// it falls due exactly one window later.
func TestWatchdogRearmUnderClockStep(t *testing.T) {
	wd, clk := newTestWatchdog()
	wd.arm(watchCompare, inputKey{}, 1, 100*time.Millisecond, 0)
	clk.Advance(10 * time.Second)
	fired := due(wd, clk)
	if len(fired) != 1 {
		t.Fatalf("%d watches fired, want 1", len(fired))
	}
	wd.arm(fired[0].kind, fired[0].key, 101, fired[0].d, 0)
	if got := due(wd, clk); len(got) != 0 {
		t.Fatalf("re-armed watch due at once (%v); its deadline must anchor to the stepped clock", oseqs(got))
	}
	if want := clk.Now().Add(100 * time.Millisecond).UnixNano(); wd.next() != want {
		t.Fatalf("next deadline %d, want %d", wd.next(), want)
	}
	clk.Advance(100*time.Millisecond - 1)
	if got := due(wd, clk); len(got) != 0 {
		t.Fatal("re-armed watch fired before its window elapsed")
	}
	clk.Advance(1)
	if got := oseqs(due(wd, clk)); !reflect.DeepEqual(got, []uint64{101}) {
		t.Fatalf("fired %v, want the re-armed watch 101", got)
	}
}

// TestWatchdogCancelBeatsClockStep cancels a watch and then steps the
// clock past its deadline: it must not fire, and cancelling twice is
// harmless.
func TestWatchdogCancelBeatsClockStep(t *testing.T) {
	wd, clk := newTestWatchdog()
	w := wd.arm(watchOrder, inputKey{keyClient, "k", 1}, 0, 50*time.Millisecond, 0)
	keep := wd.arm(watchOrder, inputKey{keyClient, "keep", 1}, 0, 80*time.Millisecond, 0)
	wd.cancel(w)
	wd.cancel(w)
	wd.cancel(nil)
	clk.Advance(time.Second)
	if got := due(wd, clk); len(got) != 1 || got[0] != keep {
		t.Fatalf("fired %d watches; want only the one left armed", len(got))
	}
	wd.cancel(keep) // already popped: a no-op
}

// TestWatchdogEarlierArmPreemptsPendingTimer arms a near deadline while
// the next instant is a far one: the next instant — what the replica's
// loop aims its timer at — must move to the near watch, which fires
// without waiting out the far one.
func TestWatchdogEarlierArmPreemptsPendingTimer(t *testing.T) {
	wd, clk := newTestWatchdog()
	start := clk.Now()
	wd.arm(watchCompare, inputKey{}, 1, 10*time.Second, 0)
	if want := start.Add(10 * time.Second).UnixNano(); wd.next() != want {
		t.Fatalf("next = %d, want the far deadline %d", wd.next(), want)
	}
	wd.arm(watchCompare, inputKey{}, 2, 20*time.Millisecond, 0)
	if want := start.Add(20 * time.Millisecond).UnixNano(); wd.next() != want {
		t.Fatalf("next = %d, want the near deadline %d", wd.next(), want)
	}
	clk.Advance(30 * time.Millisecond)
	if got := oseqs(due(wd, clk)); !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("fired %v, want only the near watch 2", got)
	}
}
