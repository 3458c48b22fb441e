package failsignal

import (
	"sync"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/trace"
)

// watchKind says which protocol deadline a watch enforces.
type watchKind uint8

const (
	// watchCompare: an ICMP output candidate was not matched by the peer
	// within the compare deadline.
	watchCompare watchKind = iota
	// watchOrder: a relayed IRMP input was not ordered by the leader
	// within t2.
	watchOrder
)

// watch is one armed fail-signal deadline.
type watch struct {
	at     int64 // deadline, Unix nanos
	seq    uint64
	kind   watchKind
	key    inputKey      // IRMP input key (watchOrder)
	oseq   uint64        // output sequence (watchCompare)
	d      time.Duration // the deadline length, for the failure reason
	mark   uint64        // peer-progress counter at arm time (re-arm decision)
	grants uint8         // progress re-arms already granted (t2 backstop)
	done   bool
	pos    int // heap index, -1 once popped or cancelled
}

// watchdog schedules all of a replica's fail-signal deadlines on a single
// goroutine: a min-heap of watches keyed on deadline, one timer armed for
// the earliest (the same event-queue discipline as internal/netsim's
// dispatcher). The seed implementation spawned a goroutine per pending
// output comparison and per relayed input; under benchmark load with a
// generous δ that was hundreds of thousands of goroutines doing nothing
// but waiting to not fire.
type watchdog struct {
	clk  clock.Clock
	fire func(*watch)
	stop <-chan struct{}
	wg   *sync.WaitGroup
	ring *trace.Ring

	mu      sync.Mutex
	heap    []*watch
	seq     uint64
	running bool
	wake    chan struct{} // cap 1
}

func (wd *watchdog) init(clk clock.Clock, stop <-chan struct{}, wg *sync.WaitGroup, fire func(*watch), ring *trace.Ring) {
	wd.clk = clk
	wd.stop = stop
	wd.wg = wg
	wd.fire = fire
	wd.ring = ring
	wd.wake = make(chan struct{}, 1)
}

func (wd *watchdog) less(i, j int) bool {
	if wd.heap[i].at != wd.heap[j].at {
		return wd.heap[i].at < wd.heap[j].at
	}
	return wd.heap[i].seq < wd.heap[j].seq
}

func (wd *watchdog) swap(i, j int) {
	wd.heap[i], wd.heap[j] = wd.heap[j], wd.heap[i]
	wd.heap[i].pos, wd.heap[j].pos = i, j
}

func (wd *watchdog) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !wd.less(i, parent) {
			return
		}
		wd.swap(i, parent)
		i = parent
	}
}

func (wd *watchdog) siftDown(i int) {
	n := len(wd.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && wd.less(l, smallest) {
			smallest = l
		}
		if r < n && wd.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		wd.swap(i, smallest)
		i = smallest
	}
}

// remove detaches the watch at heap index i.
func (wd *watchdog) remove(i int) {
	last := len(wd.heap) - 1
	wd.heap[i].pos = -1
	if i != last {
		wd.swap(i, last)
	}
	wd.heap[last] = nil
	wd.heap = wd.heap[:last]
	if i < last {
		wd.siftDown(i)
		wd.siftUp(i)
	}
}

// arm schedules a deadline d from now and returns a cancellation handle.
// mark records the caller's peer-progress counter at arm time, so the
// fire callback can tell a deadline that expired against a silent peer
// from one that expired while the peer demonstrably kept working.
func (wd *watchdog) arm(kind watchKind, key inputKey, oseq uint64, d time.Duration, mark uint64) *watch {
	wd.mu.Lock()
	wd.seq++
	w := &watch{
		at:   wd.clk.Now().UnixNano() + int64(d),
		seq:  wd.seq,
		kind: kind,
		key:  key,
		oseq: oseq,
		d:    d,
		mark: mark,
		pos:  len(wd.heap),
	}
	wd.heap = append(wd.heap, w)
	wd.siftUp(w.pos)
	if !wd.running {
		wd.running = true
		wd.wg.Add(1)
		go wd.run()
	}
	isMin := w.pos == 0
	wd.mu.Unlock()
	if isMin {
		select {
		case wd.wake <- struct{}{}:
		default:
		}
	}
	return w
}

// cancel disarms a watch. nil-safe; idempotent.
func (wd *watchdog) cancel(w *watch) {
	if w == nil {
		return
	}
	wd.mu.Lock()
	disarmed := false
	if !w.done {
		w.done = true
		if w.pos >= 0 {
			wd.remove(w.pos)
			disarmed = true
		}
	}
	wd.mu.Unlock()
	if disarmed {
		traceKey(wd.ring, trace.EvWatchCancel, w.oseq, 0, w.key)
	}
}

// run drains due watches in deadline order and fires the ones still armed.
// fire runs without wd.mu held — it takes the replica lock and may emit
// network traffic.
func (wd *watchdog) run() {
	defer wd.wg.Done()
	var due []*watch
	for {
		wd.mu.Lock()
		now := wd.clk.Now().UnixNano()
		for len(wd.heap) > 0 && wd.heap[0].at <= now {
			w := wd.heap[0]
			wd.remove(0)
			if !w.done {
				w.done = true
				due = append(due, w)
			}
		}
		var tm clock.Timer
		if len(due) == 0 && len(wd.heap) > 0 {
			tm = wd.clk.NewTimer(time.Duration(wd.heap[0].at - now))
		}
		wd.mu.Unlock()

		if len(due) > 0 {
			for _, w := range due {
				traceKey(wd.ring, trace.EvWatchFire, w.oseq, uint64(w.d), w.key)
				wd.fire(w)
			}
			clear(due)
			due = due[:0]
			continue
		}

		if tm != nil {
			select {
			case <-tm.C():
			case <-wd.wake:
				tm.Stop()
			case <-wd.stop:
				tm.Stop()
				return
			}
		} else {
			select {
			case <-wd.wake:
			case <-wd.stop:
				return
			}
		}
	}
}
