package clock

import (
	"sync"
	"time"
)

// Skewed is a per-member view of a base Clock with a configurable offset
// (clock step) and rate error (drift). It is how the chaos plane gives
// each member its own imperfect clock over the one shared virtual
// timeline: member-local deadlines (the pair's 2δ comparison windows, tick
// intervals) are computed against the skewed view, while the underlying
// event horizon stays global.
//
// The model follows CLOCK_MONOTONIC semantics: a Step changes what Now
// reports but does not retroactively re-aim timers that are already
// armed, and a timer armed for local duration d elapses after base
// duration d/(1+drift) — a fast clock (drift > 0) sees its timeouts fire
// early in base time, exactly like a crystal running fast.
//
// The value delivered on a timer's channel is the base clock's time at
// expiry; consumers that need the member-local instant call Now, which is
// what all protocol code in this repository does.
type Skewed struct {
	base Clock

	mu          sync.Mutex
	drift       float64   // local seconds per base second, minus one
	anchorBase  time.Time // base instant at the last Step/SetDrift
	anchorLocal time.Time // local instant at anchorBase
}

// NewSkewed returns an unskewed view of base (offset 0, drift 0).
func NewSkewed(base Clock) *Skewed {
	now := base.Now()
	return &Skewed{base: base, anchorBase: now, anchorLocal: now}
}

// Now implements Clock: anchorLocal + (1+drift)·(base now − anchorBase).
func (s *Skewed) Now() time.Time { return s.localAt(s.base.Now()) }

// localAt is the local instant at base instant base.
func (s *Skewed) localAt(base time.Time) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.localAtLocked(base)
}

func (s *Skewed) localAtLocked(base time.Time) time.Time {
	elapsed := base.Sub(s.anchorBase)
	return s.anchorLocal.Add(elapsed + time.Duration(s.drift*float64(elapsed)))
}

// Since implements Clock.
func (s *Skewed) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// After implements Clock.
func (s *Skewed) After(d time.Duration) <-chan time.Time { return s.NewTimer(d).C() }

// NewTimer implements Clock. The local duration d is converted to the base
// timeline at the current drift rate; later Step or SetDrift calls do not
// re-aim it.
func (s *Skewed) NewTimer(d time.Duration) Timer { return s.base.NewTimer(s.baseDuration(d)) }

// AfterFunc implements Clock, converting d as NewTimer does.
func (s *Skewed) AfterFunc(d time.Duration, f func()) Timer {
	return s.base.AfterFunc(s.baseDuration(d), f)
}

// baseDuration is local duration d on the base timeline at the current
// drift. A positive d stays positive: rounded to zero, a deadline a
// nanosecond ahead would fire at once, at the same local instant, and a
// loop or callback re-arming for it would never let time move.
func (s *Skewed) baseDuration(d time.Duration) time.Duration {
	s.mu.Lock()
	drift := s.drift
	s.mu.Unlock()
	if d > 0 && drift != 0 {
		d = max(time.Duration(float64(d)/(1+drift)), 1)
	}
	return d
}

// Step jumps the local clock by d (negative d steps it backwards). Armed
// timers are unaffected.
func (s *Skewed) Step(d time.Duration) {
	base := s.base.Now()
	s.mu.Lock()
	s.anchorLocal = s.localAtLocked(base).Add(d)
	s.anchorBase = base
	s.mu.Unlock()
}

// SetDrift sets the clock's rate error: the local clock runs (1+rate)
// local seconds per base second. rate must be > -1; typical fault
// injections use a few hundred parts per million.
func (s *Skewed) SetDrift(rate float64) {
	base := s.base.Now()
	s.mu.Lock()
	s.anchorLocal = s.localAtLocked(base)
	s.anchorBase = base
	s.drift = rate
	s.mu.Unlock()
}

// Offset reports the current local-minus-base offset.
func (s *Skewed) Offset() time.Duration {
	base := s.base.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.localAtLocked(base).Sub(base)
}

// Drift reports the current rate error.
func (s *Skewed) Drift() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drift
}
