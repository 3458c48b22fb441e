package clock

import (
	"sync"
	"time"
)

// Loop is how a node parks, wakes and re-aims its one timer: every node
// loop of the stack (an FS replica, a netsim shard, crash NewTOP's GC
// driver, the heal controller) is one. Its pass function, pass(now) next,
// does one slice of the node's work and says when to run again: a zero
// next parks the loop until the next Kick, a next at or before now runs
// it again at once, a later one is its one deadline. Passes never overlap.
//
// On a Virtual the loop is no goroutine: a kick or a due deadline queues
// the pass on the clock's driver, ordered with every other callback by
// (deadline, arm order). On any other clock it is one goroutine with a
// cap-1 wake channel and one timer, re-aimed only when the deadline moves
// earlier. A Skewed clock converts deadlines and delegates to its base.
type Loop interface {
	// Kick runs the pass soon: at once on a goroutine loop, now on a
	// virtual one. A kick that finds a pass running runs one more after
	// it. Safe from any goroutine, the pass's own included.
	Kick()
	// Stop ends the loop: no pass starts after it returns. On a goroutine
	// loop it waits for a pass in progress, so it must not be called from
	// the pass itself; on a virtual one it never waits. Idempotent.
	Stop()
}

// NewLoop starts a loop that runs pass on clk. The first pass runs at
// once.
func NewLoop(clk Clock, pass func(now time.Time) time.Time) Loop {
	switch c := clk.(type) {
	case *Virtual:
		l := &virtualLoop{pass: pass}
		l.entry = vtimer{clock: c, pos: -1, loop: l}
		c.arm(&l.entry, 0)
		return l
	case *Skewed:
		return NewLoop(c.base, func(base time.Time) time.Time {
			local := c.localAt(base)
			next := pass(local)
			switch {
			case next.IsZero():
				return next
			case !next.After(local):
				return base
			}
			return base.Add(c.baseDuration(next.Sub(local)))
		})
	}
	l := &goLoop{
		clk:  clk,
		pass: pass,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go l.run()
	return l
}

// goLoop is a Loop on its own goroutine.
type goLoop struct {
	clk  Clock
	pass func(time.Time) time.Time
	wake chan struct{} // cap 1: a kick
	stop chan struct{} // closed by Stop
	once sync.Once
	done chan struct{} // closed when run has returned
}

func (l *goLoop) Kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

func (l *goLoop) Stop() {
	l.once.Do(func() { close(l.stop) })
	<-l.done
}

// run is the loop's goroutine. aim is what tm is set for (zero when it is
// not armed); a deadline later than aim leaves the timer be, at the cost
// of one empty pass when it fires.
func (l *goLoop) run() {
	defer close(l.done)
	var (
		aim time.Time
		tm  Timer
	)
	defer func() {
		if tm != nil {
			tm.Stop()
		}
	}()
	for {
		select {
		case <-l.stop:
			return
		default:
		}
		now := l.clk.Now()
		next := l.pass(now)
		switch {
		case next.IsZero():
			if !aim.IsZero() {
				tm.Stop()
				aim = time.Time{}
			}
		case !next.After(now):
			continue
		case aim.IsZero() || next.Before(aim):
			aim, tm = next, rearm(l.clk, tm, next.Sub(now))
		}
		var fire <-chan time.Time
		if !aim.IsZero() {
			fire = tm.C()
		}
		select {
		case <-l.wake:
		case <-fire:
			aim = time.Time{}
		case <-l.stop:
			return
		}
	}
}

// rearm aims tm at d from now, or a new timer when there is none. A Real
// timer is reset in place, drained first as timers before Go 1.23 need;
// any other is replaced.
func rearm(clk Clock, tm Timer, d time.Duration) Timer {
	rt, ok := tm.(realTimer)
	switch {
	case ok:
		if !rt.t.Stop() {
			select {
			case <-rt.t.C:
			default:
			}
		}
		rt.t.Reset(d)
		return rt
	case tm != nil:
		tm.Stop()
	}
	return clk.NewTimer(d)
}
