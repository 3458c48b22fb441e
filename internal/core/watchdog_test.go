package failsignal

import (
	"sync"
	"testing"
	"time"

	"fsnewtop/internal/clock"
)

// wdFixture runs a watchdog against a manual clock and records fires.
type wdFixture struct {
	wd    watchdog
	clk   *clock.Manual
	stop  chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	fired []*watch
	hook  func(*watch) // optional per-fire callback, runs before recording
}

func newWDFixture(t *testing.T) *wdFixture {
	f := &wdFixture{clk: clock.NewManual(), stop: make(chan struct{})}
	f.wd.init(f.clk, f.stop, &f.wg, func(w *watch) {
		if f.hook != nil {
			f.hook(w)
		}
		f.mu.Lock()
		f.fired = append(f.fired, w)
		f.mu.Unlock()
	}, nil)
	t.Cleanup(func() {
		close(f.stop)
		f.wg.Wait()
	})
	return f
}

func (f *wdFixture) firedSeqs() []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]uint64, len(f.fired))
	for i, w := range f.fired {
		out[i] = w.oseq
	}
	return out
}

// waitTimerArmed blocks until the watchdog goroutine has a manual timer
// pending, so a subsequent Advance cannot race the timer's creation.
func (f *wdFixture) waitTimerArmed(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for f.clk.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never armed its timer")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (f *wdFixture) waitFired(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		f.mu.Lock()
		got := len(f.fired)
		f.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d watches fired, want %d", got, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestWatchdogClockStepFiresDueWatchesInOrder steps the clock far past
// several deadlines in one jump — the degenerate clock step — and
// expects every due watch to fire, in deadline order, from the single
// re-evaluation.
func TestWatchdogClockStepFiresDueWatchesInOrder(t *testing.T) {
	f := newWDFixture(t)
	f.wd.arm(watchCompare, inputKey{}, 1, 50*time.Millisecond, 0)
	f.wd.arm(watchCompare, inputKey{}, 2, 20*time.Millisecond, 0)
	f.wd.arm(watchCompare, inputKey{}, 3, 500*time.Millisecond, 0)
	f.waitTimerArmed(t)
	f.clk.Advance(10 * time.Second)
	f.waitFired(t, 3)
	seqs := f.firedSeqs()
	want := []uint64{2, 1, 3}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("fire order %v, want %v", seqs, want)
		}
	}
}

// TestWatchdogRearmUnderClockStep re-arms from inside the fire callback
// (the replica's progress-aware deadline discipline) while the clock has
// just stepped 10s forward. The re-armed deadline must anchor to the
// post-step clock — firing once per grant, never immediately expiring in
// a burst because its base time was taken before the step.
func TestWatchdogRearmUnderClockStep(t *testing.T) {
	f := newWDFixture(t)
	rearms := 0
	f.hook = func(w *watch) {
		if rearms < 1 {
			rearms++
			f.wd.arm(w.kind, w.key, w.oseq+100, 100*time.Millisecond, 0)
		}
	}
	f.wd.arm(watchCompare, inputKey{}, 1, 100*time.Millisecond, 0)
	f.waitTimerArmed(t)
	f.clk.Advance(10 * time.Second) // one big step: the original fires, the re-arm must not
	f.waitFired(t, 1)
	time.Sleep(5 * time.Millisecond)
	if got := len(f.firedSeqs()); got != 1 {
		t.Fatalf("re-armed watch fired %d times immediately after the step; its deadline must anchor to the stepped clock", got-1+1)
	}
	f.waitTimerArmed(t)
	f.clk.Advance(100 * time.Millisecond) // now the granted window elapses
	f.waitFired(t, 2)
	if seqs := f.firedSeqs(); seqs[1] != 101 {
		t.Fatalf("second fire was %d, want the re-armed watch 101", seqs[1])
	}
}

// TestWatchdogCancelBeatsClockStep cancels a watch and then steps the
// clock past its deadline: it must not fire.
func TestWatchdogCancelBeatsClockStep(t *testing.T) {
	f := newWDFixture(t)
	w := f.wd.arm(watchOrder, inputKey{keyClient, "k", 1}, 0, 50*time.Millisecond, 0)
	keep := f.wd.arm(watchOrder, inputKey{keyClient, "keep", 1}, 0, 80*time.Millisecond, 0)
	f.waitTimerArmed(t)
	f.wd.cancel(w)
	f.clk.Advance(time.Second)
	f.waitFired(t, 1)
	time.Sleep(5 * time.Millisecond)
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.fired) != 1 || f.fired[0] != keep {
		t.Fatalf("cancelled watch fired (got %d fires)", len(f.fired))
	}
}

// TestWatchdogEarlierArmPreemptsPendingTimer arms a near deadline while
// the dispatch timer is parked on a far one; the near watch must fire
// without waiting out the stale timer.
func TestWatchdogEarlierArmPreemptsPendingTimer(t *testing.T) {
	f := newWDFixture(t)
	f.wd.arm(watchCompare, inputKey{}, 1, 10*time.Second, 0)
	f.waitTimerArmed(t)
	f.wd.arm(watchCompare, inputKey{}, 2, 20*time.Millisecond, 0)
	// The wake re-arms the timer for the near deadline; let that settle.
	time.Sleep(2 * time.Millisecond)
	f.clk.Advance(30 * time.Millisecond)
	f.waitFired(t, 1)
	if seqs := f.firedSeqs(); seqs[0] != 2 {
		t.Fatalf("fired %d first, want the near watch 2", seqs[0])
	}
}
