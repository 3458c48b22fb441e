package clock

import (
	"testing"
	"time"
)

// waitFired asserts ch delivers within a generous wall deadline (the
// virtual clock should make it near-instant) and returns the delivered
// virtual instant.
func waitFired(t *testing.T, ch <-chan time.Time) time.Time {
	t.Helper()
	select {
	case at := <-ch:
		return at
	case <-time.After(5 * time.Second):
		t.Fatal("virtual timer did not auto-fire")
		return time.Time{}
	}
}

func TestVirtualAutoFiresWithoutWallSleep(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	start := time.Now()
	at := waitFired(t, v.After(time.Hour))
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("firing a 1h virtual timer took %v of wall time", wall)
	}
	if want := v.Now(); !at.Equal(want) {
		t.Fatalf("fired at %v, clock now %v", at, want)
	}
	if v.Elapsed() < time.Hour {
		t.Fatalf("elapsed %v, want >= 1h", v.Elapsed())
	}
}

func TestVirtualTimerChain(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	const steps = 1000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < steps; i++ {
			<-v.After(time.Second)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timer chain did not complete")
	}
	if got, want := v.Elapsed(), steps*time.Second; got < want {
		t.Fatalf("elapsed %v, want >= %v", got, want)
	}
	if v.Advances() < steps {
		t.Fatalf("advances %d, want >= %d", v.Advances(), steps)
	}
}

func TestVirtualFiresInDeadlineOrder(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	epoch := v.Now()
	t3 := v.NewTimer(3 * time.Second)
	t1 := v.NewTimer(1 * time.Second)
	t2 := v.NewTimer(2 * time.Second)
	if at := waitFired(t, t1.C()); !at.Equal(epoch.Add(1 * time.Second)) {
		t.Fatalf("t1 fired at %v", at)
	}
	if at := waitFired(t, t2.C()); !at.Equal(epoch.Add(2 * time.Second)) {
		t.Fatalf("t2 fired at %v", at)
	}
	if at := waitFired(t, t3.C()); !at.Equal(epoch.Add(3 * time.Second)) {
		t.Fatalf("t3 fired at %v", at)
	}
}

func TestVirtualStopRemovesDeadline(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	epoch := v.Now()
	early := v.NewTimer(1 * time.Second)
	late := v.NewTimer(2 * time.Second)
	if !early.Stop() {
		t.Fatal("Stop on pending timer reported false")
	}
	if at := waitFired(t, late.C()); !at.Equal(epoch.Add(2 * time.Second)) {
		t.Fatalf("late fired at %v", at)
	}
	select {
	case <-early.C():
		t.Fatal("stopped timer fired")
	default:
	}
}

func TestVirtualBusyGateBlocksAdvance(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	v.Busy()
	ch := v.After(time.Millisecond)
	time.Sleep(20 * time.Millisecond) // ample time for the driver to misfire
	select {
	case <-ch:
		t.Fatal("clock advanced while a participant was busy")
	default:
	}
	v.Done()
	waitFired(t, ch)
}

func TestVirtualConcurrentWaiters(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	const workers, rounds = 8, 200
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < rounds; i++ {
				<-v.After(time.Duration(w+1) * time.Millisecond)
			}
			done <- struct{}{}
		}(w)
	}
	deadline := time.After(10 * time.Second)
	for w := 0; w < workers; w++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatal("concurrent waiters did not finish")
		}
	}
}

func TestVirtualImmediateTimer(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	select {
	case <-v.After(0):
	default:
		t.Fatal("non-positive timer did not fire immediately")
	}
}
