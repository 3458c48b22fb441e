package clock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Virtual is an auto-advancing Clock: whenever every participating
// goroutine is parked waiting on the clock (a protocol timer, a netsim
// delivery deadline), it jumps time straight to the next earliest armed
// deadline and fires every timer due at that instant. Nothing ever sleeps
// on the wall, so an hour of protocol time costs only as much wall time as
// the protocol's own computation.
//
// Advancing is gated on quiescence, detected from two signals:
//
//   - the busy gate: a counter of "runnable participants". Components
//     bracket non-clock work with Busy/Done (netsim brackets every Send and
//     every dispatcher delivery batch; cluster brackets member
//     construction; the driver brackets every AfterFunc callback). Time
//     cannot move while the counter is non-zero.
//   - idle gates: registered predicates that report whether a subsystem's
//     internal queues are drained *and* covered by an armed timer (netsim
//     registers one per Network: every shard's earliest pending delivery
//     must have a live timer armed for exactly that deadline).
//
// Between the counter reaching zero and a parked goroutine actually
// blocking on its timer channel there is an unavoidable scheduling window;
// the driver closes it heuristically by yielding the processor several
// times and requiring the activity version (bumped by every timer
// operation and every busy transition) to hold still across the yields.
// That proof only holds on one P: on a second one, a worker that took a
// hand-off from a netsim handler is mid-step while the yields come back
// quiet, time leaps to its peer's compare deadline, and the pair
// fail-signals a fault nobody injected. So a live Virtual pins
// GOMAXPROCS to 1 (pinProcs) — a stopgap; ROADMAP item 1 replaces the
// heuristic. Advances are always bounded by the next armed deadline.
//
// The zero value is not usable; call NewVirtual, and Stop when done.
type Virtual struct {
	mu   sync.Mutex
	now  time.Time
	heap []*VirtualTimer // indexed min-heap on (when, seq)
	seq  uint64

	epoch    time.Time
	busy     atomic.Int64
	version  atomic.Uint64
	advances atomic.Uint64

	gatesMu  sync.Mutex
	gates    map[int]func() bool
	nextGate int

	kick     chan struct{} // cap 1: "quiescence may have been reached"
	stopCh   chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// settleRounds is how many scheduler yields the driver performs, requiring
// the activity version to hold still throughout, before trusting that
// every participant is parked.
const settleRounds = 4

// NewVirtual returns a running virtual clock positioned at the same fixed
// epoch as NewManual. The caller must Stop it to release the driver
// goroutine.
func NewVirtual() *Virtual {
	v := &Virtual{
		now:    time.Date(2003, 6, 23, 0, 0, 0, 0, time.UTC),
		gates:  make(map[int]func() bool),
		kick:   make(chan struct{}, 1),
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	v.epoch = v.now
	pinProcs()
	go v.drive()
	return v
}

// procs serialises the process while any Virtual is live: the first live
// clock sets GOMAXPROCS to 1, the last Stop restores what it found.
var procs struct {
	mu   sync.Mutex
	live int
	prev int
}

func pinProcs() {
	procs.mu.Lock()
	defer procs.mu.Unlock()
	if procs.live == 0 {
		procs.prev = runtime.GOMAXPROCS(1)
	}
	procs.live++
}

func unpinProcs() {
	procs.mu.Lock()
	defer procs.mu.Unlock()
	if procs.live--; procs.live == 0 {
		runtime.GOMAXPROCS(procs.prev)
	}
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

// NewTimer implements Clock.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	t := &VirtualTimer{clock: v, ch: make(chan time.Time, 1)}
	if d <= 0 {
		v.mu.Lock()
		t.fired = true
		t.ch <- v.now
		v.mu.Unlock()
		return t
	}
	return v.arm(t, d)
}

// AfterFunc implements Clock: f runs on the driver goroutine with the busy
// gate held, so time cannot move until it returns. A d ≤ 0 is due now.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	return v.arm(&VirtualTimer{clock: v, f: f}, max(d, 0))
}

// arm pushes t onto the heap, due d from now, and nudges the driver.
func (v *Virtual) arm(t *VirtualTimer, d time.Duration) *VirtualTimer {
	v.mu.Lock()
	v.seq++
	t.when, t.seq, t.pos = v.now.Add(d), v.seq, len(v.heap)
	v.heap = append(v.heap, t)
	v.siftUp(t.pos)
	v.mu.Unlock()
	v.bump()
	return t
}

// Busy marks one participant runnable: time will not advance until the
// matching Done. Nestable and safe for concurrent use.
func (v *Virtual) Busy() { v.busy.Add(1) }

// Done releases a Busy mark.
func (v *Virtual) Done() {
	if v.busy.Add(-1) == 0 {
		v.bump()
	}
}

// AddGate registers an idleness predicate consulted before every advance:
// time moves only while every gate reports true. The predicate must be
// safe to call from the driver goroutine at any moment. The returned
// function unregisters it.
func (v *Virtual) AddGate(idle func() bool) (remove func()) {
	v.gatesMu.Lock()
	id := v.nextGate
	v.nextGate++
	v.gates[id] = idle
	v.gatesMu.Unlock()
	return func() {
		v.gatesMu.Lock()
		delete(v.gates, id)
		v.gatesMu.Unlock()
	}
}

// Stop halts the driver. Armed timers never fire afterwards and Now is
// frozen. Safe to call multiple times.
func (v *Virtual) Stop() {
	v.stopOnce.Do(func() {
		close(v.stopCh)
		<-v.done
		unpinProcs()
	})
}

// Advances reports how many time jumps the driver has performed.
func (v *Virtual) Advances() uint64 { return v.advances.Load() }

// Elapsed reports how much virtual time has passed since the epoch.
func (v *Virtual) Elapsed() time.Duration { return v.Now().Sub(v.epoch) }

// Pending reports how many timers are armed but not yet fired.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.heap)
}

// bump records instrumented activity and nudges the driver.
func (v *Virtual) bump() {
	v.version.Add(1)
	select {
	case v.kick <- struct{}{}:
	default:
	}
}

// drive is the advancement loop. It reacts to kicks (busy count reaching
// zero, timers being armed) and keeps a short wall ticker as a backstop
// against any missed wakeup, so a quiescent system can never hang.
func (v *Virtual) drive() {
	defer close(v.done)
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for {
		select {
		case <-v.stopCh:
			return
		case <-v.kick:
		case <-tick.C:
		}
		v.tryAdvance()
	}
}

// quiet reports whether the busy gate and every registered idle gate agree
// that all participants are parked on the clock.
func (v *Virtual) quiet() bool {
	if v.busy.Load() != 0 {
		return false
	}
	v.gatesMu.Lock()
	defer v.gatesMu.Unlock()
	for _, idle := range v.gates {
		if !idle() {
			return false
		}
	}
	return true
}

// tryAdvance performs one settle-check-advance attempt. On success it
// jumps time to the earliest armed deadline and fires every timer due at
// that instant, in arm order; an AfterFunc callback runs on this
// goroutine, without the lock and holding the busy gate.
func (v *Virtual) tryAdvance() {
	ver := v.version.Load()
	for i := 0; i < settleRounds; i++ {
		if v.busy.Load() != 0 {
			return
		}
		runtime.Gosched()
	}
	if v.version.Load() != ver || !v.quiet() {
		return // activity observed; a kick or the backstop retries
	}
	v.mu.Lock()
	if len(v.heap) == 0 {
		v.mu.Unlock()
		return
	}
	target := v.heap[0].when
	v.now = target
	for len(v.heap) > 0 && !v.heap[0].when.After(target) {
		t := v.heap[0]
		v.removeLocked(t)
		t.fired = true
		if t.f == nil {
			t.ch <- target
			continue
		}
		v.Busy()
		v.mu.Unlock()
		t.f()
		v.Done()
		v.mu.Lock()
	}
	v.mu.Unlock()
	v.advances.Add(1)
	v.bump() // the fired timers' owners are waking; re-examine soon
}

// VirtualTimer is the Timer implementation of Virtual.
type VirtualTimer struct {
	clock *Virtual
	when  time.Time
	seq   uint64
	pos   int            // heap index, -1 once fired/stopped
	ch    chan time.Time // nil for an AfterFunc timer
	f     func()         // an AfterFunc timer's callback
	fired bool
}

// C implements Timer.
func (t *VirtualTimer) C() <-chan time.Time { return t.ch }

// Stop implements Timer.
func (t *VirtualTimer) Stop() bool {
	t.clock.mu.Lock()
	if t.fired {
		t.clock.mu.Unlock()
		return false
	}
	t.fired = true
	t.clock.removeLocked(t)
	t.clock.mu.Unlock()
	t.clock.bump()
	return true
}

// Pending reports whether the timer is armed and has not yet fired or been
// stopped. netsim's idle gate uses it to check that a shard's earliest
// delivery deadline is still covered by a live timer.
func (t *VirtualTimer) Pending() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	return !t.fired
}

// --- timer min-heap on (when, seq), with position indexes for O(log n)
// removal so a stopped timer cannot linger at the root and draw a
// pointless advance to its dead deadline.

func (v *Virtual) less(i, j int) bool {
	a, b := v.heap[i], v.heap[j]
	if !a.when.Equal(b.when) {
		return a.when.Before(b.when)
	}
	return a.seq < b.seq
}

func (v *Virtual) swap(i, j int) {
	v.heap[i], v.heap[j] = v.heap[j], v.heap[i]
	v.heap[i].pos, v.heap[j].pos = i, j
}

func (v *Virtual) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !v.less(i, parent) {
			break
		}
		v.swap(i, parent)
		i = parent
	}
}

func (v *Virtual) siftDown(i int) {
	n := len(v.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && v.less(l, smallest) {
			smallest = l
		}
		if r < n && v.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		v.swap(i, smallest)
		i = smallest
	}
}

func (v *Virtual) removeLocked(t *VirtualTimer) {
	i := t.pos
	last := len(v.heap) - 1
	v.swap(i, last)
	v.heap[last] = nil
	v.heap = v.heap[:last]
	t.pos = -1
	if i < last {
		v.siftDown(i)
		v.siftUp(i)
	}
}
