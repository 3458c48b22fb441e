package clock

import (
	"testing"
	"time"
)

func TestManualNowAdvances(t *testing.T) {
	m := NewManual()
	start := m.Now()
	m.Advance(5 * time.Second)
	if got := m.Now().Sub(start); got != 5*time.Second {
		t.Fatalf("advanced %v, want 5s", got)
	}
}

func TestManualSince(t *testing.T) {
	m := NewManual()
	start := m.Now()
	m.Advance(250 * time.Millisecond)
	if got := m.Since(start); got != 250*time.Millisecond {
		t.Fatalf("Since = %v, want 250ms", got)
	}
}

func TestManualTimerFiresAtDeadline(t *testing.T) {
	m := NewManual()
	timer := m.NewTimer(time.Second)
	select {
	case <-timer.C():
		t.Fatal("timer fired before Advance")
	default:
	}
	m.Advance(999 * time.Millisecond)
	select {
	case <-timer.C():
		t.Fatal("timer fired 1ms early")
	default:
	}
	m.Advance(time.Millisecond)
	select {
	case at := <-timer.C():
		want := m.Now()
		if !at.Equal(want) {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("timer did not fire at deadline")
	}
}

func TestManualTimerZeroDurationFiresImmediately(t *testing.T) {
	m := NewManual()
	timer := m.NewTimer(0)
	select {
	case <-timer.C():
	default:
		t.Fatal("zero-duration timer did not fire immediately")
	}
}

func TestManualTimerStop(t *testing.T) {
	m := NewManual()
	timer := m.NewTimer(time.Second)
	if !timer.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	if timer.Stop() {
		t.Fatal("second Stop returned true")
	}
	m.Advance(2 * time.Second)
	select {
	case <-timer.C():
		t.Fatal("stopped timer fired")
	default:
	}
	if got := m.Pending(); got != 0 {
		t.Fatalf("Pending = %d, want 0", got)
	}
}

func TestManualTimersFireInDeadlineOrder(t *testing.T) {
	m := NewManual()
	late := m.NewTimer(2 * time.Second)
	early := m.NewTimer(1 * time.Second)
	m.Advance(3 * time.Second)
	earlyAt := <-early.C()
	lateAt := <-late.C()
	if !earlyAt.Before(lateAt) {
		t.Fatalf("early fired at %v, late at %v; want early < late", earlyAt, lateAt)
	}
}

func TestManualAfter(t *testing.T) {
	m := NewManual()
	ch := m.After(10 * time.Millisecond)
	m.Advance(10 * time.Millisecond)
	select {
	case <-ch:
	default:
		t.Fatal("After channel did not fire")
	}
}

func TestManualPendingCounts(t *testing.T) {
	m := NewManual()
	m.NewTimer(time.Second)
	m.NewTimer(2 * time.Second)
	if got := m.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	m.Advance(time.Second)
	if got := m.Pending(); got != 1 {
		t.Fatalf("Pending after firing one = %d, want 1", got)
	}
}

func TestRealClockBasics(t *testing.T) {
	c := NewReal()
	t0 := c.Now()
	timer := c.NewTimer(time.Millisecond)
	select {
	case <-timer.C():
	case <-time.After(time.Second):
		t.Fatal("real timer did not fire within 1s")
	}
	if c.Since(t0) <= 0 {
		t.Fatal("Since returned non-positive duration")
	}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Fatal("After did not fire within 1s")
	}
}

func TestManualConcurrentAdvanceAndTimer(t *testing.T) {
	m := NewManual()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			timer := m.NewTimer(time.Duration(i%7) * time.Millisecond)
			if i%3 == 0 {
				timer.Stop()
			}
		}
	}()
	for i := 0; i < 100; i++ {
		m.Advance(time.Millisecond)
	}
	<-done
	m.Advance(10 * time.Millisecond)
}

// BenchmarkRealTimerLateness measures how late a Real timer fires on an
// otherwise idle process: the lateness the replica loop's timer pays on
// every deadline, and what internal/core's stall rule takes as normal.
// Run it alone, e.g. go test -run '^$' -bench RealTimerLateness
// -benchtime 500x ./internal/clock/; late-us is the mean, max-late-us
// the worst iteration.
func BenchmarkRealTimerLateness(b *testing.B) {
	for _, d := range []time.Duration{200 * time.Microsecond, 2300 * time.Microsecond} {
		b.Run(d.String(), func(b *testing.B) {
			c := NewReal()
			var sum, worst time.Duration
			for i := 0; i < b.N; i++ {
				t0 := c.Now()
				<-c.NewTimer(d).C()
				late := c.Since(t0) - d
				sum += late
				worst = max(worst, late)
			}
			b.ReportMetric(float64(sum)/float64(b.N)/1e3, "late-us")
			b.ReportMetric(float64(worst)/1e3, "max-late-us")
		})
	}
}
