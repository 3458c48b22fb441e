package clock

import (
	"container/heap"
	"runtime"
	"sync"
	"time"
)

// Virtual is a discrete-event Clock: the executor of everything that runs
// on it. One driver goroutine owns the timeline. It runs every callback
// armed on the clock — AfterFunc callbacks and the passes of every Loop
// built on it — one at a time, in (deadline, arm order), and moves time
// only when no callback is due now and no busy mark is held; it then jumps
// straight to the earliest deadline. Nothing sleeps on the wall, so an
// hour of protocol time costs only the protocol's own computation.
//
// Every node loop of a stack built on a Virtual is a pass on its driver,
// so virtual time is exact by construction, whatever GOMAXPROCS is. Code
// outside the driver that acts on the stack at the instant it read from
// Now brackets the act with Busy/Done, as netsim's Send and cluster
// bring-up do. A channel timer (After, NewTimer) only notifies a goroutine
// outside; time does not wait for it. A callback must not block on the
// clock's own progress (a channel timer, another callback).
//
// The zero value is not usable; call NewVirtual, and Stop when done.
type Virtual struct {
	mu       sync.Mutex
	now      time.Time
	heap     queue
	seq      uint64
	busy     int
	advances uint64
	stopped  bool
	settle   func(now time.Time) // see onSettle

	epoch time.Time
	wake  chan struct{} // cap 1: the heap, the busy count or stopped changed
	done  chan struct{} // closed when the driver has returned
}

// NewVirtual returns a running virtual clock positioned at the same fixed
// epoch as NewManual. The caller must Stop it to release the driver
// goroutine.
func NewVirtual() *Virtual {
	v := &Virtual{
		now:  time.Date(2003, 6, 23, 0, 0, 0, 0, time.UTC),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	v.epoch = v.now
	go v.drive()
	return v
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// After implements Clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time { return v.NewTimer(d).C() }

// NewTimer implements Clock. The channel receives the instant at which the
// timer fired; the goroutine that receives it is not waited for.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	t := &vtimer{clock: v, pos: -1, ch: make(chan time.Time, 1)}
	if d <= 0 {
		t.ch <- v.Now()
		return t
	}
	return v.arm(t, d)
}

// AfterFunc implements Clock: f runs on the driver goroutine, and time
// does not move until it returns. A d ≤ 0 is due now.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	return v.arm(&vtimer{clock: v, pos: -1, f: f}, max(d, 0))
}

// arm queues t, due d from now.
func (v *Virtual) arm(t *vtimer, d time.Duration) *vtimer {
	v.mu.Lock()
	v.aimLocked(t, v.now.Add(d))
	v.mu.Unlock()
	v.poke()
	return t
}

// Busy marks one participant busy: time will not advance until the
// matching Done, though callbacks due now still run. Nestable and safe for
// concurrent use.
func (v *Virtual) Busy() {
	v.mu.Lock()
	v.busy++
	v.mu.Unlock()
}

// Done releases a Busy mark.
func (v *Virtual) Done() {
	v.mu.Lock()
	v.busy--
	idle := v.busy == 0
	v.mu.Unlock()
	if idle {
		v.poke()
	}
}

// Stop halts the driver once the callback it is running, if any, returns.
// Armed timers never fire afterwards and Now is frozen. Safe to call more
// than once; not from a callback.
func (v *Virtual) Stop() {
	v.mu.Lock()
	v.stopped = true
	v.mu.Unlock()
	v.poke()
	<-v.done
}

// onSettle makes f run on the driver whenever time is about to move:
// every callback due now has run and no busy mark is held. f reads a
// stack on the clock as that instant left it, however far a goroutine
// outside has fallen behind; what f arms runs before time moves. Nil
// removes f. Observe is its one caller.
func (v *Virtual) onSettle(f func(now time.Time)) {
	v.mu.Lock()
	v.settle = f
	v.mu.Unlock()
}

// Advances reports how many time jumps the driver has performed.
func (v *Virtual) Advances() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.advances
}

// Elapsed reports how much virtual time has passed since the epoch.
func (v *Virtual) Elapsed() time.Duration { return v.Now().Sub(v.epoch) }

// poke wakes the driver; a wake already pending covers this one.
func (v *Virtual) poke() {
	select {
	case v.wake <- struct{}{}:
	default:
	}
}

// drive is the executor: it runs the earliest entry once it is due, moving
// time to its deadline first when nothing is due now and no busy mark is
// held, and parks until poked otherwise. Callbacks run without the lock.
// Before it moves time it runs the settle hook, then yields the processor
// once, so that on one P the goroutines outside it (an application
// draining deliveries, a test polling a condition) are not starved;
// nothing on the timeline depends on the yield.
func (v *Virtual) drive() {
	defer close(v.done)
	yielded := false
	v.mu.Lock()
	for !v.stopped {
		if len(v.heap) == 0 || (v.heap[0].when.After(v.now) && v.busy > 0) {
			v.mu.Unlock()
			<-v.wake
			v.mu.Lock()
			continue
		}
		t := v.heap[0]
		if t.when.After(v.now) {
			if !yielded {
				yielded = true
				settle, now := v.settle, v.now
				v.mu.Unlock()
				if settle != nil {
					settle(now)
				}
				runtime.Gosched()
				v.mu.Lock()
				continue
			}
			v.now = t.when
			v.advances++
		}
		yielded = false
		v.removeLocked(t)
		now := v.now
		switch {
		case t.ch != nil:
			t.ch <- now
		case t.loop != nil:
			v.runPassLocked(t.loop, now)
		default:
			v.mu.Unlock()
			t.f()
			v.mu.Lock()
		}
	}
	v.mu.Unlock()
}

// vtimer is one entry on a Virtual's queue: a channel timer, an AfterFunc
// callback, or a Loop's next pass.
type vtimer struct {
	clock *Virtual
	when  time.Time
	seq   uint64
	pos   int            // heap index, -1 while not queued
	ch    chan time.Time // a channel timer's channel
	f     func()         // an AfterFunc timer's callback
	loop  *virtualLoop   // the Loop this entry runs a pass of
}

// C implements Timer.
func (t *vtimer) C() <-chan time.Time { return t.ch }

// Stop implements Timer.
func (t *vtimer) Stop() bool {
	v := t.clock
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.pos < 0 {
		return false
	}
	v.removeLocked(t)
	return true
}

// virtualLoop is a Loop on a Virtual: an entry on its queue, no goroutine.
// Its fields are guarded by the clock's mu.
type virtualLoop struct {
	pass    func(now time.Time) time.Time
	entry   vtimer
	running bool // its pass is on the driver now
	kicked  bool // kicked while running: run again at once
	stopped bool
}

// Kick implements Loop: the pass is queued now, behind whatever is
// already due now.
func (l *virtualLoop) Kick() {
	v := l.entry.clock
	v.mu.Lock()
	switch {
	case l.stopped:
	case l.running:
		l.kicked = true
	case l.entry.pos >= 0 && !l.entry.when.After(v.now):
	default:
		v.aimLocked(&l.entry, v.now)
	}
	v.mu.Unlock()
	v.poke()
}

// Stop implements Loop. It never waits: a pass running on the driver
// finishes there, and none starts after it.
func (l *virtualLoop) Stop() {
	v := l.entry.clock
	v.mu.Lock()
	l.stopped = true
	if l.entry.pos >= 0 {
		v.removeLocked(&l.entry)
	}
	v.mu.Unlock()
}

// runPassLocked runs one pass of l at now, unlocked, and queues the next
// one the pass asked for (or a kick that came in meanwhile demands).
func (v *Virtual) runPassLocked(l *virtualLoop, now time.Time) {
	l.running = true
	v.mu.Unlock()
	next := l.pass(now)
	v.mu.Lock()
	l.running = false
	switch {
	case l.stopped:
	case l.kicked || (!next.IsZero() && !next.After(now)):
		l.kicked = false
		v.aimLocked(&l.entry, now)
	case !next.IsZero():
		v.aimLocked(&l.entry, next)
	}
}

// queue is a Virtual's entries: a min-heap on (when, seq) whose entries
// know their index, so a stopped timer leaves at once and never draws an
// advance to its dead deadline.
type queue []*vtimer

func (q queue) Len() int { return len(q) }

func (q queue) Less(i, j int) bool {
	if !q[i].when.Equal(q[j].when) {
		return q[i].when.Before(q[j].when)
	}
	return q[i].seq < q[j].seq
}

func (q queue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].pos, q[j].pos = i, j
}

func (q *queue) Push(x any) {
	t := x.(*vtimer)
	t.pos = len(*q)
	*q = append(*q, t)
}

func (q *queue) Pop() any {
	old := *q
	t := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	t.pos = -1
	return t
}

// aimLocked (re)queues t at when, in a new arm order.
func (v *Virtual) aimLocked(t *vtimer, when time.Time) {
	v.seq++
	t.when, t.seq = when, v.seq
	if t.pos >= 0 {
		heap.Fix(&v.heap, t.pos)
	} else {
		heap.Push(&v.heap, t)
	}
}

func (v *Virtual) removeLocked(t *vtimer) { heap.Remove(&v.heap, t.pos) }
