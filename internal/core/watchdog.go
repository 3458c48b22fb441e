package failsignal

import (
	"container/heap"
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
	// watchSilence (follower with ticks): no fwd arrived from the leader
	// within the silence bound. One is armed at a time; a fwd does not
	// touch it, the expiry re-arms it.
	watchSilence
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
	pos    int           // heap index, -1 once popped or cancelled
}

// watchdog holds all of a replica's fail-signal deadlines in one min-heap
// keyed on deadline. It is passive: no goroutine, lock or timer of its
// own. Every caller holds the replica's mu, and the replica's loop aims
// its one timer at next and pops due watches between machine steps. (The
// seed spawned a goroutine per pending comparison and per relayed input;
// under benchmark load with a generous δ that was hundreds of thousands
// of goroutines doing nothing but waiting to not fire.)
type watchdog struct {
	clk  clock.Clock
	ring *trace.Ring
	h    watchHeap
	seq  uint64
}

// arm schedules a deadline d from now and returns its cancellation handle.
// mark records the caller's peer-progress counter at arm time, so an
// expiry can tell a silent peer from one that demonstrably kept working.
func (wd *watchdog) arm(kind watchKind, key inputKey, oseq uint64, d time.Duration, mark uint64) *watch {
	wd.seq++
	w := &watch{
		at:   wd.clk.Now().UnixNano() + int64(d),
		seq:  wd.seq,
		kind: kind,
		key:  key,
		oseq: oseq,
		d:    d,
		mark: mark,
	}
	heap.Push(&wd.h, w)
	return w
}

// cancel disarms a watch. nil-safe; idempotent.
func (wd *watchdog) cancel(w *watch) {
	if w == nil || w.pos < 0 {
		return
	}
	heap.Remove(&wd.h, w.pos)
	traceKey(wd.ring, trace.EvWatchCancel, w.oseq, 0, w.key)
}

// popDue removes and returns the earliest watch due at now (Unix nanos),
// or nil when none is.
func (wd *watchdog) popDue(now int64) *watch {
	if len(wd.h) == 0 || wd.h[0].at > now {
		return nil
	}
	w := heap.Pop(&wd.h).(*watch)
	traceKey(wd.ring, trace.EvWatchFire, w.oseq, uint64(w.d), w.key)
	return w
}

// next returns the earliest armed deadline in Unix nanos, 0 when none.
func (wd *watchdog) next() int64 {
	if len(wd.h) == 0 {
		return 0
	}
	return wd.h[0].at
}

// watchHeap orders watches by deadline, then by arming order, so watches
// due at one instant fire deterministically.
type watchHeap []*watch

func (h watchHeap) Len() int { return len(h) }

func (h watchHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h watchHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}

func (h *watchHeap) Push(x any) {
	w := x.(*watch)
	w.pos = len(*h)
	*h = append(*h, w)
}

func (h *watchHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	old[len(old)-1] = nil
	w.pos = -1
	*h = old[:len(old)-1]
	return w
}
