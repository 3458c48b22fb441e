package clock

import (
	"testing"
	"time"
)

func TestSkewedStepShiftsNow(t *testing.T) {
	base := NewManual()
	s := NewSkewed(base)
	if got := s.Now(); !got.Equal(base.Now()) {
		t.Fatalf("unskewed Now %v != base %v", got, base.Now())
	}
	s.Step(5 * time.Millisecond)
	if got, want := s.Now(), base.Now().Add(5*time.Millisecond); !got.Equal(want) {
		t.Fatalf("after step Now %v, want %v", got, want)
	}
	if off := s.Offset(); off != 5*time.Millisecond {
		t.Fatalf("offset %v, want 5ms", off)
	}
	s.Step(-2 * time.Millisecond)
	if off := s.Offset(); off != 3*time.Millisecond {
		t.Fatalf("offset after negative step %v, want 3ms", off)
	}
}

func TestSkewedDriftScalesElapsedTime(t *testing.T) {
	base := NewManual()
	s := NewSkewed(base)
	s.SetDrift(0.5) // runs 50% fast
	before := s.Now()
	base.Advance(10 * time.Second)
	if got, want := s.Now().Sub(before), 15*time.Second; got != want {
		t.Fatalf("skewed elapsed %v, want %v", got, want)
	}
	// Re-anchoring on SetDrift must not double-count past drift.
	s.SetDrift(0)
	mid := s.Now()
	base.Advance(time.Second)
	if got, want := s.Now().Sub(mid), time.Second; got != want {
		t.Fatalf("post-reset elapsed %v, want %v", got, want)
	}
}

func TestSkewedTimerRunsOnBaseTimelineScaledByDrift(t *testing.T) {
	base := NewManual()
	s := NewSkewed(base)
	s.SetDrift(1.0) // 100% fast: local 2s elapse in base 1s
	tm := s.NewTimer(2 * time.Second)
	base.Advance(time.Second)
	select {
	case <-tm.C():
	default:
		t.Fatal("fast clock's 2s timer should fire after 1s of base time")
	}
}

func TestSkewedStepDoesNotReaimArmedTimer(t *testing.T) {
	base := NewManual()
	s := NewSkewed(base)
	tm := s.NewTimer(time.Second)
	s.Step(10 * time.Second) // jumping Now past the deadline must not fire it
	select {
	case <-tm.C():
		t.Fatal("step retroactively fired an armed timer")
	default:
	}
	base.Advance(time.Second)
	select {
	case <-tm.C():
	default:
		t.Fatal("timer did not fire after its base duration")
	}
}

func TestSkewedOverVirtualAutoFires(t *testing.T) {
	v := NewVirtual()
	defer v.Stop()
	s := NewSkewed(v)
	s.SetDrift(200e-6) // 200 ppm fast
	select {
	case <-s.After(time.Minute):
	case <-time.After(5 * time.Second):
		t.Fatal("skewed timer over virtual clock did not auto-fire")
	}
	if v.Elapsed() >= time.Minute {
		t.Fatalf("fast clock's 1m should cost < 1m of base time, elapsed %v", v.Elapsed())
	}
}

// TestSkewedTinyDeadlineMovesTime: on a skewed view of a virtual clock, a
// loop or a callback that waits out the last nanoseconds of its deadline
// must see time move. A local nanosecond must not convert to zero base
// time, or the wait fires at once at the same instant, forever.
func TestSkewedTinyDeadlineMovesTime(t *testing.T) {
	for _, drift := range []float64{500e-6, -500e-6} {
		v := NewVirtual()
		s := NewSkewed(v)
		s.SetDrift(drift)
		due := s.Now().Add(3 * time.Nanosecond)
		reached := make(chan struct{}, 2)
		l := NewLoop(s, func(now time.Time) time.Time {
			if now.Before(due) {
				return now.Add(time.Nanosecond)
			}
			reached <- struct{}{}
			return time.Time{}
		})
		var wait func()
		wait = func() {
			if now := s.Now(); now.Before(due) {
				s.AfterFunc(time.Nanosecond, wait)
				return
			}
			reached <- struct{}{}
		}
		s.AfterFunc(0, wait)
		for i := 0; i < 2; i++ {
			select {
			case <-reached:
			case <-time.After(5 * time.Second):
				t.Fatalf("drift %v: a nanosecond deadline never let time move", drift)
			}
		}
		l.Stop()
		v.Stop()
	}
}
