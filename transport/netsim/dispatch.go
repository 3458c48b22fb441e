package netsim

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fsnewtop/internal/clock"
)

// pending is one scheduled delivery. Deadlines are Unix nanoseconds, not
// time.Time: deadline compares run O(log links) times per message, and
// int64 compares are both branch-cheap and 16 bytes smaller to copy.
type pending struct {
	at  int64  // delivery deadline, Unix nanos
	seq uint64 // shard-local send order; breaks deadline ties deterministically
	msg Message
}

// linkQueue buffers one link direction's pending deliveries in send order.
// The FIFO clamp in scheduleLocked makes deadlines non-decreasing along
// the queue, so the front entry is always the link's earliest — which is
// what lets the shard heap hold one entry per *link* instead of one per
// *message*: O(log links) sift steps on 8-byte pointers instead of
// O(log messages) on 88-byte values. The buffer is a power-of-two ring so
// front/push/pop are mask-and-index.
type linkQueue struct {
	lastAt int64 // deadline floor for the link's next message
	pos    int   // index in the shard heap, -1 while empty
	buf    []pending
	head   int
	count  int
}

func (lq *linkQueue) front() *pending { return &lq.buf[lq.head] }

func (lq *linkQueue) pushBack(p pending) {
	if lq.count == len(lq.buf) {
		grown := make([]pending, max(4, 2*len(lq.buf)))
		for i := 0; i < lq.count; i++ {
			grown[i] = lq.buf[(lq.head+i)&(len(lq.buf)-1)]
		}
		lq.buf, lq.head = grown, 0
	}
	lq.buf[(lq.head+lq.count)&(len(lq.buf)-1)] = p
	lq.count++
}

func (lq *linkQueue) popFront() pending {
	p := lq.buf[lq.head]
	lq.buf[lq.head] = pending{} // release msg payload for GC
	lq.head = (lq.head + 1) & (len(lq.buf) - 1)
	lq.count--
	return p
}

// shard owns one slice of the network's links: their FIFO queues, an
// indexed min-heap of the non-empty ones keyed on front-entry deadline, a
// private seeded RNG for their latency/loss draws, and private stats
// counters. One dispatcher loop per shard (a clock.Loop, started lazily on
// first send) delivers queue entries in deadline order, aimed at the
// earliest deadline — so the steady-state goroutine count is O(shards),
// independent of how many links exist, and zero on a virtual clock.
type shard struct {
	net *Network

	mu    sync.Mutex
	rng   *rand.Rand
	links map[linkKey]*linkQueue
	heap  []*linkQueue // indexed min-heap of non-empty queues
	seq   uint64
	loop  clock.Loop // nil until the first send

	batch []pending // the loop's due deliveries, reused across passes

	sent, delivered, dropped, blocked, bytes atomic.Uint64
}

func newShard(n *Network, seed int64) *shard {
	return &shard{
		net:   n,
		rng:   rand.New(rand.NewSource(seed)),
		links: make(map[linkKey]*linkQueue),
	}
}

// less orders the heap by front-entry (deadline, send order).
func (sh *shard) less(a, b *linkQueue) bool {
	pa, pb := a.front(), b.front()
	if pa.at != pb.at {
		return pa.at < pb.at
	}
	return pa.seq < pb.seq
}

func (sh *shard) heapSwap(i, j int) {
	sh.heap[i], sh.heap[j] = sh.heap[j], sh.heap[i]
	sh.heap[i].pos, sh.heap[j].pos = i, j
}

func (sh *shard) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !sh.less(sh.heap[i], sh.heap[parent]) {
			break
		}
		sh.heapSwap(i, parent)
		i = parent
	}
}

func (sh *shard) siftDown(i int) {
	n := len(sh.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && sh.less(sh.heap[l], sh.heap[smallest]) {
			smallest = l
		}
		if r < n && sh.less(sh.heap[r], sh.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		sh.heapSwap(i, smallest)
		i = smallest
	}
}

func (sh *shard) heapPush(lq *linkQueue) {
	lq.pos = len(sh.heap)
	sh.heap = append(sh.heap, lq)
	sh.siftUp(lq.pos)
}

// heapPopRoot detaches the root queue (which just went empty).
func (sh *shard) heapPopRoot() {
	root := sh.heap[0]
	last := len(sh.heap) - 1
	sh.heapSwap(0, last)
	sh.heap[last] = nil
	sh.heap = sh.heap[:last]
	root.pos = -1
	if last > 0 {
		sh.siftDown(0)
	}
}

// scheduleLocked (sh.mu held) computes the message's delivery deadline,
// clamps it so the link never reorders — a message may not be delivered
// before its predecessor on the same link, matching TCP-like FIFO and the
// Order protocol's leader→follower assumption — and appends it to the
// link's queue. It reports whether the caller must wake the dispatcher:
// the entry became the network-earliest deadline of this shard.
func (sh *shard) scheduleLocked(key linkKey, msg Message, now int64, delay time.Duration) bool {
	lq := sh.links[key]
	if lq == nil {
		lq = &linkQueue{pos: -1}
		sh.links[key] = lq
	}
	at := max(now+int64(delay), lq.lastAt)
	lq.lastAt = at
	sh.seq++
	wasEmpty := lq.count == 0
	lq.pushBack(pending{at: at, seq: sh.seq, msg: msg})
	if wasEmpty {
		sh.heapPush(lq)
	}
	if sh.loop == nil {
		sh.loop = clock.NewLoop(sh.net.clk, sh.pass) // its first pass runs at once
		return false
	}
	// Only a link whose new front reached the heap root can move the
	// shard's earliest deadline; a message behind existing traffic cannot.
	return wasEmpty && lq.pos == 0
}

// stop shuts the dispatcher down, waiting for a pass in progress off a
// virtual clock. Safe to call multiple times and on shards that never
// started; the network is closed, so no send starts one after.
func (sh *shard) stop() {
	sh.mu.Lock()
	l := sh.loop
	sh.mu.Unlock()
	if l != nil {
		l.Stop()
	}
}

// pass is one step of the dispatcher loop: drain every due delivery in
// one locked batch and hand it to handlers outside the lock, then run
// again at once; with nothing due, aim the loop at the next deadline.
// Batching amortizes the lock round-trip and the clock read over all
// messages that became due together — at high send rates that is almost
// all of them.
func (sh *shard) pass(now time.Time) time.Time {
	sh.mu.Lock()
	at := now.UnixNano()
	for len(sh.heap) > 0 && sh.heap[0].front().at <= at {
		lq := sh.heap[0]
		sh.batch = append(sh.batch, lq.popFront())
		if lq.count == 0 {
			sh.heapPopRoot()
		} else {
			sh.siftDown(0) // front deadline grew
		}
	}
	var next time.Time
	if len(sh.batch) == 0 && len(sh.heap) > 0 {
		next = time.Unix(0, sh.heap[0].front().at)
	}
	sh.mu.Unlock()
	if len(sh.batch) == 0 {
		return next
	}
	for i := range sh.batch {
		if sh.net.closed.Load() {
			break // Close abandons in-flight deliveries
		}
		sh.deliver(sh.batch[i].msg)
	}
	clear(sh.batch) // release payloads for GC
	sh.batch = sh.batch[:0]
	return now
}

// deliver hands msg to its destination handler, if still registered.
func (sh *shard) deliver(msg Message) {
	h := sh.net.reg.Load().handlers[msg.To]
	if h == nil {
		return
	}
	sh.delivered.Add(1)
	h(msg)
}
