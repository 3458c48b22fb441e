package failsignal

import (
	"sync"
	"time"

	"fsnewtop/internal/sm"
)

// orderedInput is one entry of the Delivered Message Queue (DMQ): an input
// in its leader-decided position, stamped with its submission time so that
// the Compare deadline term κ·π can be computed (π is "the time elapsed
// since the corresponding input was submitted for processing",
// Section 2.2).
type orderedInput struct {
	in        sm.Input
	submitted time.Time
}

// dmq is an unbounded FIFO queue feeding the wrapped machine. It is
// unbounded on purpose: the Order role must never block a network handler
// (that would stall the link worker and violate the δ bound the Compare
// timeouts are computed from); memory is bounded in practice by the
// workload's outstanding-message window.
type dmq struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []orderedInput
	closed bool
}

func newDMQ() *dmq {
	q := &dmq{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends an input. Pushing to a closed queue is a no-op.
func (q *dmq) push(oi orderedInput) {
	q.mu.Lock()
	if !q.closed {
		q.items = append(q.items, oi)
	}
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks until an input is available or the queue is closed. The
// second result is false once the queue is closed and drained.
func (q *dmq) pop() (orderedInput, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return orderedInput{}, false
	}
	oi := q.items[0]
	q.items = q.items[1:]
	return oi, true
}

// close wakes all poppers. Queued items may still be drained.
func (q *dmq) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// len reports the number of queued inputs.
func (q *dmq) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// relayItem is one queued follower→leader relay.
type relayItem struct {
	key inputKey
	e   *irmpEntry
}

// relayQueue is the follower's FIFO relay queue: strictly ordered so that
// relayed inputs reach the leader in the order they arrived here.
type relayQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []relayItem
	closed bool
}

func newRelayQueue() *relayQueue {
	q := &relayQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends an item. Caller may hold the replica mutex: push only takes
// the queue's own lock.
func (q *relayQueue) push(it relayItem) {
	q.mu.Lock()
	if !q.closed {
		q.items = append(q.items, it)
	}
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks for the next item; false once closed.
func (q *relayQueue) pop() (relayItem, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return relayItem{}, false
	}
	it := q.items[0]
	q.items = q.items[1:]
	return it, true
}

func (q *relayQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.items = nil
	q.mu.Unlock()
	q.cond.Broadcast()
}
