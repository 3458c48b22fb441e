package clock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestObserveManual: on a clock that is not virtual the pass runs once per
// period, at each period's end, and a pass that returns false leaves
// nothing armed.
func TestObserveManual(t *testing.T) {
	m := NewManual()
	t0 := m.Now()
	var at []time.Duration // passes run inside Advance, on this goroutine
	Observe(m, func(now time.Time) bool {
		at = append(at, now.Sub(t0))
		return len(at) < 4
	})
	m.Advance(observePeriod - 1)
	if len(at) != 0 {
		t.Fatalf("passes %v before the first period ended", at)
	}
	m.Advance(1)
	m.Advance(10 * observePeriod)
	want := []time.Duration{observePeriod, 2 * observePeriod, 3 * observePeriod, 4 * observePeriod}
	if fmt.Sprint(at) != fmt.Sprint(want) {
		t.Fatalf("passes at %v, want %v: one per period until the pass returns false", at, want)
	}
	if n := m.Pending(); n != 0 {
		t.Fatalf("%d timers armed after the pass returned false, want 0", n)
	}
}

// TestObserveReal: on the wall clock the passes run one after another,
// never closer than the period, and none runs after one returned false.
func TestObserveReal(t *testing.T) {
	const passes = 5
	var (
		mu      sync.Mutex
		at      []time.Time
		inPass  atomic.Bool
		overlap atomic.Bool
		done    = make(chan struct{})
	)
	Observe(NewReal(), func(now time.Time) bool {
		if inPass.Swap(true) {
			overlap.Store(true)
		}
		defer inPass.Store(false)
		mu.Lock()
		defer mu.Unlock()
		at = append(at, now)
		if len(at) == passes {
			close(done)
			return false
		}
		return true
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the pass did not run five times in 10s")
	}
	time.Sleep(10 * observePeriod)
	mu.Lock()
	defer mu.Unlock()
	if len(at) != passes {
		t.Fatalf("%d passes, want %d: a pass ran after one returned false", len(at), passes)
	}
	if overlap.Load() {
		t.Fatal("two passes ran at once")
	}
	for i := 1; i < len(at); i++ {
		if gap := at[i].Sub(at[i-1]); gap < observePeriod {
			t.Errorf("passes %d and %d %v apart, want at least %v", i-1, i, gap, observePeriod)
		}
	}
}

// TestObserveVirtual: on a virtual clock the pass runs at the end of
// every instant, a callback it arms runs before time moves (and the pass
// runs again after it), and a pass that returns false clears the settle
// hook: the instants after it run no pass.
func TestObserveVirtual(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	var log []string // written by callbacks and the pass, all on the driver
	note := func(s string) func() { return func() { log = append(log, s) } }
	done := make(chan struct{})
	v.AfterFunc(0, func() {
		t0 := v.Now()
		armed := false
		Observe(v, func(now time.Time) bool {
			log = append(log, "pass@"+now.Sub(t0).String())
			if now.Sub(t0) == time.Second && !armed {
				armed = true
				v.AfterFunc(0, note("armed-by-pass"))
			}
			return now.Sub(t0) < 2*time.Second
		})
		v.AfterFunc(time.Second, note("a"))
		v.AfterFunc(2*time.Second, note("b"))
		v.AfterFunc(3*time.Second, func() {
			v.mu.Lock()
			cleared := v.settle == nil
			v.mu.Unlock()
			log = append(log, fmt.Sprintf("c(cleared=%v)", cleared))
			v.AfterFunc(time.Second, func() { close(done) })
		})
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the scripted run never ended")
	}
	want := "[pass@0s a pass@1s armed-by-pass pass@1s b pass@2s c(cleared=true)]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("log = %s\nwant  %s", got, want)
	}
}
