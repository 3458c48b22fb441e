package clock

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// afterFuncRig is one Clock under the AfterFunc contract, with a way to
// let time pass on it.
type afterFuncRig struct {
	clk  Clock
	unit time.Duration // spacing of the test's deadlines
	// pass lets at least d of the clock's time go by.
	pass func(d time.Duration)
	// manual: pass moves time exactly, so a callback is observed at its
	// deadline to the nanosecond and "not yet" can be checked between
	// steps.
	manual bool
	// slack is how far before its nominal deadline a callback may see Now
	// (a skewed clock converts durations through float arithmetic).
	slack time.Duration
	// wall: time is the wall clock's, so a callback may be scheduled later
	// than the next deadline and "not yet" cannot be asserted.
	wall bool
	stop func()
}

func afterFuncRigs() map[string]func() afterFuncRig {
	return map[string]func() afterFuncRig{
		"manual": func() afterFuncRig {
			m := NewManual()
			return afterFuncRig{clk: m, unit: time.Second, pass: m.Advance, manual: true, stop: func() {}}
		},
		"virtual": func() afterFuncRig {
			v := NewVirtual()
			return afterFuncRig{clk: v, unit: time.Second, pass: func(d time.Duration) { <-v.After(d) }, stop: v.Stop}
		},
		"skewed": func() afterFuncRig {
			m := NewManual()
			s := NewSkewed(m)
			s.SetDrift(200e-6) // fast: its timeouts fire early in base time
			return afterFuncRig{clk: s, unit: time.Second, pass: m.Advance, slack: time.Microsecond, stop: func() {}}
		},
		"real": func() afterFuncRig {
			r := NewReal()
			return afterFuncRig{clk: r, unit: 100 * time.Millisecond, pass: func(d time.Duration) { <-r.After(d) }, wall: true, stop: func() {}}
		},
	}
}

// recv waits up to five wall seconds for ch.
func recv[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		var zero T
		return zero
	}
}

// TestAfterFuncContract pins Clock.AfterFunc on every implementation: f
// runs once, after d, never inside the call that arms it; Stop before the
// deadline prevents it and reports true; callbacks and channel timers fire
// in deadline order.
func TestAfterFuncContract(t *testing.T) {
	for name, mk := range afterFuncRigs() {
		t.Run(name, func(t *testing.T) {
			rig := mk()
			defer rig.stop()
			clk, u := rig.clk, rig.unit

			t.Run("once after d", func(t *testing.T) {
				fired := make(chan time.Time, 2)
				start := clk.Now()
				clk.AfterFunc(u, func() { fired <- clk.Now() })
				if rig.manual {
					rig.pass(u - time.Nanosecond)
					if len(fired) != 0 {
						t.Fatal("f ran before d")
					}
				}
				rig.pass(u)
				at := recv(t, fired, "the callback")
				if got := at.Sub(start); got < u-rig.slack || (rig.manual && got != u) {
					t.Fatalf("f saw %v elapsed, want %v", got, u)
				}
				rig.pass(2 * u)
				if len(fired) != 0 {
					t.Fatal("f ran twice")
				}
			})

			t.Run("not inside the arming call", func(t *testing.T) {
				var mu sync.Mutex
				ran := make(chan struct{})
				mu.Lock()
				clk.AfterFunc(0, func() { mu.Lock(); close(ran); mu.Unlock() })
				mu.Unlock()
				rig.pass(u)
				recv(t, ran, "a callback armed with d = 0")
			})

			t.Run("stop", func(t *testing.T) {
				fired := make(chan struct{}, 1)
				tm := clk.AfterFunc(u, func() { fired <- struct{}{} })
				if !tm.Stop() {
					t.Fatal("Stop before the deadline reported false")
				}
				rig.pass(2 * u)
				if len(fired) != 0 {
					t.Fatal("a stopped callback ran")
				}
				if tm.Stop() {
					t.Fatal("a second Stop reported true")
				}
				if tm.C() != nil {
					t.Fatal("an AfterFunc timer has a channel")
				}
				late := clk.AfterFunc(u, func() { fired <- struct{}{} })
				rig.pass(2 * u)
				recv(t, fired, "the callback")
				if late.Stop() {
					t.Fatal("Stop after f ran reported true")
				}
			})

			t.Run("deadline order", func(t *testing.T) {
				// Callbacks at 1, 3 and 5 units, channel timers at 2 and 4:
				// each callback finds the channel timer before it fired and
				// (time permitting) the one after it not yet.
				start := clk.Now()
				ch2, ch4 := clk.NewTimer(2*u), clk.NewTimer(4*u)
				var (
					mu       sync.Mutex
					order    []string
					problems []string
				)
				done := make(chan struct{})
				arm := func(k int, before, after Timer) {
					clk.AfterFunc(time.Duration(k)*u, func() {
						mu.Lock()
						defer mu.Unlock()
						order = append(order, fmt.Sprintf("f%d@%v", k, clk.Now().Sub(start).Round(u)))
						if before != nil {
							select {
							case at := <-before.C():
								order = append(order, fmt.Sprintf("c%d@%v", k-1, at.Sub(start).Round(u)))
							default:
								problems = append(problems, fmt.Sprintf("f%d ran before the channel timer at %d", k, k-1))
							}
						}
						if after != nil && !rig.wall {
							select {
							case <-after.C():
								problems = append(problems, fmt.Sprintf("the channel timer at %d fired before f%d", k+1, k))
							default:
							}
						}
						if k == 5 {
							close(done)
						}
					})
				}
				arm(5, ch4, nil)
				arm(3, ch2, ch4)
				arm(1, nil, ch2)
				rig.pass(6 * u)
				recv(t, done, "the last callback")
				mu.Lock()
				defer mu.Unlock()
				if len(problems) > 0 {
					t.Fatal(problems)
				}
				want := []string{"f1@" + u.String(), "f3@" + (3 * u).String(), "c2@" + (2 * u).String(), "f5@" + (5 * u).String(), "c4@" + (4 * u).String()}
				if fmt.Sprint(order) != fmt.Sprint(want) {
					t.Fatalf("fired %v, want %v", order, want)
				}
			})
		})
	}
}

// TestVirtualAfterFuncHoldsTime: a Virtual runs a callback on its one
// driver goroutine, so time cannot move — not even to a deadline the
// callback itself arms — until the callback returns.
func TestVirtualAfterFuncHoldsTime(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	result := make(chan string, 1)
	v.AfterFunc(time.Second, func() {
		at := v.Now()
		next := v.NewTimer(time.Nanosecond)
		time.Sleep(10 * time.Millisecond)
		switch {
		case !v.Now().Equal(at):
			result <- "time moved under the callback"
		case !next.Stop():
			result <- "a timer armed by the callback fired under it"
		default:
			result <- ""
		}
	})
	if msg := recv(t, result, "the callback"); msg != "" {
		t.Fatal(msg)
	}
}
