package fsnewtop

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/codec"
	"fsnewtop/internal/group"
	"fsnewtop/internal/sm"
	"fsnewtop/internal/trace"
	"fsnewtop/transport"
)

// The caps of one batch, on both sides of the pair: how many multicasts
// the accumulation window coalesces into one KindBatch input, and how many
// same-destination outputs a replica's coalescer merges into one KindBatch
// output. maxBatchBytes bounds the summed payload bytes; a single item
// larger than that still travels, alone.
const (
	maxBatchMsgs  = 128
	maxBatchBytes = 1 << 20
)

// errClosed is what a submission to a closed member returns.
var errClosed = fmt.Errorf("fsnewtop: member closed: %w", transport.ErrClosed)

// window is the invocation layer's group-commit accumulation window: the
// one path by which an FS-NewTOP member submits to its pair.
//
// The window is clocked by the pipe itself. A multicast with no round of
// this member's own in flight goes out at once (an idle member pays zero
// added latency), while traffic behind an in-flight round accumulates and
// flushes the instant that round's own delivery returns — as one KindBatch
// input, so the pair pays one order/sign/compare/counter-sign round for
// the whole backlog. Batch size therefore tracks the backlog the ordering
// pipeline actually built up, with no rate tuning. Backstops: a size cap
// flushes inline; an open window waits at most δ (a round slower than the
// pair's own synchrony bound means the pair is stalled, and the window is
// forced open rather than trusting a return that may never come); a
// fail-signal flushes at once. An open window always has a round in
// flight: a multicast waits only behind one, and every path that ends the
// last one in flight flushes the window.
type window struct {
	// send signs and submits one input to both pair halves: payload, or
	// its gather form g when not nil (see sm.Output.Gather).
	send  func(kind string, payload []byte, g *codec.Gather) error
	clk   clock.Clock
	delta time.Duration

	mu      sync.Mutex
	pending []sm.Output // the window's multicasts: kind and payload, or its gather form
	bytes   int
	opened  time.Time // when the open window's first message arrived
	// inflight counts this member's own multicasts submitted to the pair
	// whose own-origin delivery has not yet come back: the group-commit
	// clock (see ownDelivered).
	inflight int
	// err is a background flush's failure, kept for the next submission.
	err    error
	closed bool
	// backstop is the open window's δ deadline, a clock callback to expire.
	backstop clock.Timer
}

// newWindow returns an empty window; it runs no goroutine of its own.
func newWindow(clk clock.Clock, delta time.Duration, send func(kind string, payload []byte, g *codec.Gather) error) *window {
	return &window{send: send, clk: clk, delta: delta}
}

// submit routes one GC-bound call. Multicasts may coalesce;
// any other method flushes the window first and goes out directly, so
// submission order is preserved across kinds (a join never overtakes the
// multicasts queued before it, nor vice versa). A submission after close
// fails with an error wrapping transport.ErrClosed, and one after a failed
// background flush fails with that flush's error: a lost multicast is
// always reported to the next caller. g, when not nil, is the payload in
// gather form instead of payload.
func (w *window) submit(kind string, payload []byte, g *codec.Gather) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errClosed
	}
	if err := w.err; err != nil {
		w.err = nil
		return err
	}
	if kind != group.KindMcast {
		if err := w.flushLocked(); err != nil {
			return err
		}
		return w.sendLocked(kind, payload, g)
	}
	if len(w.pending) == 0 && w.inflight == 0 {
		return w.sendLocked(kind, payload, g)
	}
	if len(w.pending) == 0 {
		w.opened = w.clk.Now()
		w.backstop = w.clk.AfterFunc(w.delta, w.expire)
	}
	item := sm.Output{Kind: kind, Payload: payload, Gather: g}
	w.pending = append(w.pending, item)
	w.bytes += item.Size()
	if len(w.pending) >= maxBatchMsgs || w.bytes >= maxBatchBytes {
		return w.flushLocked()
	}
	return nil
}

// flushLocked submits the pending window as one input: a single-item
// window goes out as the plain multicast it would have been, a longer one
// as a KindBatch envelope. Caller holds w.mu.
func (w *window) flushLocked() error {
	if len(w.pending) == 0 {
		return nil
	}
	w.backstop.Stop()
	items := w.pending
	w.pending, w.bytes = nil, 0
	if len(items) == 1 {
		return w.sendLocked(items[0].Kind, items[0].Payload, items[0].Gather)
	}
	batch, g := group.MarshalBatch(items)
	if err := w.send(group.KindBatch, batch, g); err != nil {
		return err
	}
	w.inflight += len(items)
	return nil
}

// keepFlushLocked flushes on a background trigger — a returning round, the
// backstop, a fail-signal — keeping a failure for the next submission.
// Caller holds w.mu.
func (w *window) keepFlushLocked() {
	if err := w.flushLocked(); err != nil && w.err == nil {
		w.err = err
	}
}

// sendLocked submits one input. Caller holds w.mu, which is what keeps
// the client's sequence numbers in submission order.
func (w *window) sendLocked(kind string, payload []byte, g *codec.Gather) error {
	if err := w.send(kind, payload, g); err != nil {
		return err
	}
	if kind == group.KindMcast {
		w.inflight++
	}
	return nil
}

// ownDelivered records the return of one of this member's own multicasts.
// When the last outstanding one is back the pipe is idle and whatever
// accumulated behind the round flushes at once.
func (w *window) ownDelivered() {
	w.mu.Lock()
	if w.inflight > 0 {
		w.inflight--
	}
	if w.inflight == 0 {
		w.keepFlushLocked()
	}
	w.mu.Unlock()
}

// flush empties the window now: a fail-signal arrived, and whatever the
// application does about it must not queue behind the backstop.
func (w *window) flush() {
	w.mu.Lock()
	w.keepFlushLocked()
	w.mu.Unlock()
}

// expire is the backstop: a window open for δ flushes, and the in-flight
// count resets rather than trusting a stalled round's bookkeeping. A
// callback that lost a race with a flush finds no window, or a younger one
// not yet due, which keeps its own deadline (re-armed here, as is one a
// skewed clock woke a hair early).
func (w *window) expire() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.pending) == 0 {
		return
	}
	if wait := w.opened.Add(w.delta).Sub(w.clk.Now()); wait > 0 {
		w.backstop.Stop()
		w.backstop = w.clk.AfterFunc(wait, w.expire)
		return
	}
	w.inflight = 0
	w.keepFlushLocked()
}

// close flushes any remainder, so a clean Close does not strand accepted
// submissions. Later submissions fail, and a backstop still in flight
// finds the window empty.
func (w *window) close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.flushLocked() // nobody is left to report a failure to
	w.closed = true
}

// coalescer wraps one GC machine replica of the pair: it merges maximal
// runs of consecutive step outputs addressed to the identical destination
// list into one KindBatch output, so the pair pays one sign/compare/
// counter-sign round for the run instead of one per output. It is a pure
// function of the step's outputs, so both replicas stay output-identical
// (R1). Only FS-NewTOP wraps its machines: crash-tolerant NewTOP has no
// sign round to amortise and runs the bare machine.
type coalescer struct{ m *group.Machine }

// Step implements sm.Machine.
func (c coalescer) Step(in sm.Input) []sm.Output { return coalesceOutputs(c.m.Step(in)) }

// SetTrace implements trace.Traceable: the pair hands the ring through to
// the machine, which is what emits into it.
func (c coalescer) SetTrace(r *trace.Ring) { c.m.SetTrace(r) }

// coalesceOutputs merges runs of consecutive same-destination outputs into
// KindBatch outputs under maxBatchMsgs and maxBatchBytes. Destination
// lists are produced deterministically, so positional equality is both
// correct and cheap. Runs of length one pass through untouched, so an
// unbatchable step costs nothing.
func coalesceOutputs(outs []sm.Output) []sm.Output {
	if len(outs) < 2 {
		return outs
	}
	merged := make([]sm.Output, 0, len(outs))
	for i := 0; i < len(outs); {
		run, bytes := 1, outs[i].Size()
		for i+run < len(outs) && run < maxBatchMsgs {
			next := outs[i+run]
			if !slices.Equal(outs[i].To, next.To) || bytes+next.Size() > maxBatchBytes {
				break
			}
			bytes += next.Size()
			run++
		}
		if run == 1 {
			merged = append(merged, outs[i])
			i++
			continue
		}
		batch, g := group.MarshalBatch(outs[i : i+run])
		merged = append(merged, sm.Output{Kind: group.KindBatch, To: outs[i].To, Payload: batch, Gather: g})
		i += run
	}
	return merged
}
