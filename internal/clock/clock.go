// Package clock abstracts time so that protocol timeouts (the fail-signal
// comparison windows, suspector periods, retransmission intervals) can be
// driven either by the real wall clock or by a manually advanced test clock.
//
// All timeout logic in this repository goes through a Clock; no protocol
// code calls time.Now or time.After directly. This is what makes the
// fail-signal timeout behaviour (Section 2.2 of the paper) unit-testable
// without sleeping.
package clock

import (
	"slices"
	"sync"
	"time"
)

// Clock is the time source used by all protocol components.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that receives the then-current time once d
	// has elapsed.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a stoppable timer that fires once after d.
	NewTimer(d time.Duration) Timer
	// AfterFunc calls f once after d, never inside the AfterFunc call
	// (each implementation says where). The returned Timer's C is nil.
	AfterFunc(d time.Duration, f func()) Timer
	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
}

// Timer is a stoppable single-shot timer.
type Timer interface {
	// C returns the channel on which the expiry time is delivered.
	C() <-chan time.Time
	// Stop prevents the timer from firing. It reports whether the timer
	// was still pending; it does not wait for a started AfterFunc's f.
	Stop() bool
}

// Real is a Clock backed by the system wall clock. The zero value is ready
// to use.
type Real struct{}

// NewReal returns a wall-clock Clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

// AfterFunc implements Clock: f runs on its own goroutine (time.AfterFunc).
func (Real) AfterFunc(d time.Duration, f func()) Timer { return realTimer{time.AfterFunc(d, f)} }

type realTimer struct{ t *time.Timer }

func (rt realTimer) C() <-chan time.Time { return rt.t.C }
func (rt realTimer) Stop() bool          { return rt.t.Stop() }

// Manual is a Clock whose time only moves when Advance is called. It is
// safe for concurrent use. The zero value starts at the zero time; most
// tests will prefer NewManual, which starts at a fixed non-zero instant so
// that "uninitialised time.Time" bugs do not hide.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*manualTimer
}

// NewManual returns a manual clock positioned at a fixed, arbitrary epoch.
func NewManual() *Manual {
	return &Manual{now: time.Date(2003, 6, 23, 0, 0, 0, 0, time.UTC)}
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Since implements Clock.
func (m *Manual) Since(t time.Time) time.Duration { return m.Now().Sub(t) }

// After implements Clock.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	return m.NewTimer(d).C()
}

// NewTimer implements Clock.
func (m *Manual) NewTimer(d time.Duration) Timer {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &manualTimer{
		clock: m,
		when:  m.now.Add(d),
		ch:    make(chan time.Time, 1),
	}
	if d <= 0 {
		t.fired = true
		t.ch <- m.now
		return t
	}
	m.waiters = append(m.waiters, t)
	return t
}

// AfterFunc implements Clock: f runs inside Advance, in deadline order
// with every other timer. A d ≤ 0 is due at the next Advance.
func (m *Manual) AfterFunc(d time.Duration, f func()) Timer {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &manualTimer{clock: m, when: m.now.Add(max(d, 0)), f: f}
	m.waiters = append(m.waiters, t)
	return t
}

// Advance moves the clock forward by d, firing every timer whose deadline
// is reached, in deadline order. AfterFunc callbacks run without the
// clock's lock, so they may use the clock.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	target := m.now.Add(d)
	for {
		next := m.earliestLocked(target)
		if next == nil {
			break
		}
		m.now = next.when
		next.fired = true
		if next.f == nil {
			next.ch <- m.now
			continue
		}
		m.mu.Unlock()
		next.f()
		m.mu.Lock()
	}
	m.now = target
	m.mu.Unlock()
}

// earliestLocked removes and returns the unfired timer with the earliest
// deadline not after target, or nil if none qualifies.
func (m *Manual) earliestLocked(target time.Time) *manualTimer {
	best := -1
	for i, t := range m.waiters {
		if t.fired || t.when.After(target) {
			continue
		}
		if best == -1 || t.when.Before(m.waiters[best].when) {
			best = i
		}
	}
	if best == -1 {
		return nil
	}
	t := m.waiters[best]
	m.waiters = append(m.waiters[:best], m.waiters[best+1:]...)
	return t
}

// Pending reports how many timers are armed but not yet fired. Useful in
// tests asserting that timeout paths were cancelled.
func (m *Manual) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.waiters {
		if !t.fired {
			n++
		}
	}
	return n
}

// Armed reports whether a timer is armed for exactly at: tests use it to
// see where a loop has aimed its timer.
func (m *Manual) Armed(at time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.ContainsFunc(m.waiters, func(t *manualTimer) bool { return !t.fired && t.when.Equal(at) })
}

type manualTimer struct {
	clock *Manual
	when  time.Time
	ch    chan time.Time // nil for an AfterFunc timer
	f     func()         // an AfterFunc timer's callback
	fired bool
}

func (t *manualTimer) C() <-chan time.Time { return t.ch }

func (t *manualTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.fired {
		return false
	}
	t.fired = true
	for i, w := range t.clock.waiters {
		if w == t {
			t.clock.waiters = append(t.clock.waiters[:i], t.clock.waiters[i+1:]...)
			break
		}
	}
	return true
}
