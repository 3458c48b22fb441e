package clock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// loopProbe is a pass function whose plan a test sets: each pass records
// the instant it ran at and returns what next says.
type loopProbe struct {
	mu   sync.Mutex
	at   []time.Time
	next func(now time.Time) time.Time
	ran  chan struct{} // one token per pass
}

func newLoopProbe() *loopProbe {
	return &loopProbe{ran: make(chan struct{}, 1024), next: func(time.Time) time.Time { return time.Time{} }}
}

func (p *loopProbe) pass(now time.Time) time.Time {
	p.mu.Lock()
	p.at = append(p.at, now)
	next := p.next
	p.mu.Unlock()
	p.ran <- struct{}{}
	return next(now)
}

func (p *loopProbe) plan(next func(now time.Time) time.Time) {
	p.mu.Lock()
	p.next = next
	p.mu.Unlock()
}

func (p *loopProbe) passes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.at)
}

func (p *loopProbe) last() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.at[len(p.at)-1]
}

// TestLoopContract pins clock.Loop on every clock: the first pass runs at
// once, a zero next parks until a kick, a kick runs one pass, a deadline
// runs one at (on the wall clock: not before) it, a next at or before now
// runs again at once, and no pass starts after Stop.
func TestLoopContract(t *testing.T) {
	for name, mk := range afterFuncRigs() {
		t.Run(name, func(t *testing.T) {
			rig := mk()
			defer rig.stop()
			clk, u := rig.clk, rig.unit
			p := newLoopProbe()
			l := NewLoop(clk, p.pass)
			recv(t, p.ran, "the first pass")

			rig.pass(2 * u)
			if n := p.passes(); n != 1 {
				t.Fatalf("a parked loop ran %d passes, want 1", n)
			}

			l.Kick()
			recv(t, p.ran, "a kicked pass")

			start := clk.Now()
			p.plan(func(now time.Time) time.Time {
				p.plan(func(time.Time) time.Time { return time.Time{} })
				return now.Add(u)
			})
			l.Kick()
			recv(t, p.ran, "the pass that sets a deadline")
			rig.pass(2 * u)
			recv(t, p.ran, "the pass at the deadline")
			if got := p.last().Sub(start); got < u-rig.slack || (rig.manual && got > 2*u) {
				t.Fatalf("the deadline's pass ran %v after the kick, want %v", got, u)
			}

			var again atomic.Int32
			p.plan(func(now time.Time) time.Time {
				if again.Add(1) < 3 {
					return now
				}
				return time.Time{}
			})
			l.Kick()
			for i := 0; i < 3; i++ {
				recv(t, p.ran, "a pass run again at once")
			}

			l.Stop()
			l.Stop()
			n := p.passes()
			l.Kick()
			rig.pass(2 * u)
			if got := p.passes(); got != n {
				t.Fatalf("%d passes ran after Stop", got-n)
			}
		})
	}
}

// TestLoopEarlierDeadlineReaims: a kick whose pass brings the deadline
// forward re-aims the loop's timer; a later one leaves it be.
func TestLoopEarlierDeadlineReaims(t *testing.T) {
	m := NewManual()
	p := newLoopProbe()
	start := m.Now()
	p.plan(func(time.Time) time.Time { return start.Add(10 * time.Second) })
	l := NewLoop(m, p.pass)
	defer l.Stop()
	recv(t, p.ran, "the first pass")
	p.plan(func(now time.Time) time.Time {
		if at := start.Add(3 * time.Second); now.Before(at) {
			return at
		}
		return time.Time{}
	})
	l.Kick()
	recv(t, p.ran, "the kicked pass")
	waitFor(t, func() bool { return m.Armed(start.Add(3 * time.Second)) })
	if n := m.Pending(); n != 1 {
		t.Fatalf("%d timers armed, want the one re-aimed timer", n)
	}
	m.Advance(3 * time.Second)
	recv(t, p.ran, "the pass at the earlier deadline")
	if got := p.last(); !got.Equal(start.Add(3 * time.Second)) {
		t.Fatalf("pass ran at %v, want +3s", got.Sub(start))
	}
}

// TestVirtualLoopOrder: on a Virtual, passes due at one instant run in arm
// order, a kick queues behind what is already due now, and a pass sees
// the instant it was due at.
func TestVirtualLoopOrder(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	var (
		mu    sync.Mutex
		order []string
	)
	done := make(chan struct{})
	at := v.Now().Add(time.Second)
	mk := func(name string, first time.Time, then func()) Loop {
		started := false
		return NewLoop(v, func(now time.Time) time.Time {
			if !started {
				started = true
				return first
			}
			mu.Lock()
			order = append(order, name+"@"+now.Sub(at).String())
			if len(order) == 3 {
				close(done)
			}
			mu.Unlock()
			if then != nil {
				then()
			}
			return time.Time{}
		})
	}
	v.Busy() // no time moves until all three have run their first pass
	c := mk("c", time.Time{}, nil)
	a := mk("a", at, c.Kick)
	b := mk("b", at, nil)
	v.Done()
	recv(t, done, "three passes")
	mu.Lock()
	defer mu.Unlock()
	if got := fmt.Sprint(order); got != "[a@0s b@0s c@0s]" {
		t.Fatalf("passes ran %s, want [a@0s b@0s c@0s]", got)
	}
	for _, l := range []Loop{a, b, c} {
		l.Stop()
	}
}

// TestVirtualLoopStopInsideCallback: Stop from inside a callback on the
// driver — another callback, or the loop's own pass — returns at once, and
// the stopped loop never runs again.
func TestVirtualLoopStopInsideCallback(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	var self Loop
	var passes atomic.Int32
	stopped := make(chan struct{})
	v.Busy() // the second pass, a millisecond on, must find self set
	self = NewLoop(v, func(now time.Time) time.Time {
		if passes.Add(1) == 2 {
			self.Stop()
			close(stopped)
		}
		return now.Add(time.Millisecond)
	})
	v.Done()
	recv(t, stopped, "a pass that stops its own loop")
	other := NewLoop(v, func(now time.Time) time.Time { return now.Add(time.Millisecond) })
	fired := make(chan struct{})
	v.AfterFunc(5*time.Millisecond, func() {
		other.Stop()
		close(fired)
	})
	recv(t, fired, "a callback that stops a loop")
	<-v.After(10 * time.Millisecond)
	if n := passes.Load(); n != 2 {
		t.Fatalf("the self-stopped loop ran %d passes, want 2", n)
	}
}

// waitFor polls cond for up to five wall seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
