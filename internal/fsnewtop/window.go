package fsnewtop

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"fsnewtop/internal/clock"
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

// windowMaxDelay bounds how long an open window may wait with no round in
// flight — a backstop for the flush-on-return path, not the pacing clock.
// With a round in flight the bound stretches to δ.
const windowMaxDelay = 2 * time.Millisecond

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
// flushes inline; an open window waits at most windowMaxDelay with nothing
// in flight and δ with a round in flight (a round slower than the pair's
// own synchrony bound means the pair is stalled, and the window is forced
// open rather than trusting a return that may never come); a fail-signal
// flushes at once.
type window struct {
	// send signs and submits one input to both pair halves.
	send  func(kind string, payload []byte) error
	clk   clock.Clock
	delta time.Duration

	mu      sync.Mutex
	pending []group.BatchItem
	bytes   int
	opened  time.Time // when the open window's first message arrived
	// inflight counts this member's own multicasts submitted to the pair
	// whose own-origin delivery has not yet come back: the group-commit
	// clock (see ownDelivered).
	inflight int
	// err is a background flush's failure, kept for the next submission.
	err    error
	closed bool
	wake   chan struct{}
	stop   chan struct{}
	done   chan struct{}
}

// newWindow starts a window and its backstop loop.
func newWindow(clk clock.Clock, delta time.Duration, send func(kind string, payload []byte) error) *window {
	w := &window{
		send:  send,
		clk:   clk,
		delta: delta,
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go w.flushLoop()
	return w
}

// submit routes one GC-bound call. Multicasts may coalesce;
// any other method flushes the window first and goes out directly, so
// submission order is preserved across kinds (a join never overtakes the
// multicasts queued before it, nor vice versa). A submission after close
// fails with an error wrapping transport.ErrClosed, and one after a failed
// background flush fails with that flush's error: a lost multicast is
// always reported to the next caller.
func (w *window) submit(kind string, payload []byte) error {
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
		return w.sendLocked(kind, payload)
	}
	if len(w.pending) == 0 && w.inflight == 0 {
		return w.sendLocked(kind, payload)
	}
	if len(w.pending) == 0 {
		w.opened = w.clk.Now()
	}
	w.pending = append(w.pending, group.BatchItem{Kind: kind, Payload: payload})
	w.bytes += len(payload)
	if len(w.pending) >= maxBatchMsgs || w.bytes >= maxBatchBytes {
		return w.flushLocked()
	}
	// Wake the flush loop so it arms (or re-arms) the backstop timer.
	select {
	case w.wake <- struct{}{}:
	default:
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
	items := w.pending
	w.pending, w.bytes = nil, 0
	if len(items) == 1 {
		return w.sendLocked(items[0].Kind, items[0].Payload)
	}
	if err := w.send(group.KindBatch, group.BatchMsg{Items: items}.Marshal()); err != nil {
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
func (w *window) sendLocked(kind string, payload []byte) error {
	if err := w.send(kind, payload); err != nil {
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

// flushLoop enforces the backstop deadline. Submissions that hit a size
// cap flush inline and simply leave the loop nothing to do. A backstop
// flush resets the in-flight count rather than trusting a stalled round's
// bookkeeping.
func (w *window) flushLoop() {
	defer close(w.done)
	for {
		w.mu.Lock()
		var wait time.Duration
		armed := false
		if len(w.pending) > 0 {
			bound := windowMaxDelay
			if w.inflight > 0 && w.delta > bound {
				bound = w.delta
			}
			wait = w.opened.Add(bound).Sub(w.clk.Now())
			if wait <= 0 {
				w.inflight = 0
				w.keepFlushLocked()
				w.mu.Unlock()
				continue
			}
			armed = true
		}
		w.mu.Unlock()
		if !armed {
			select {
			case <-w.stop:
				return
			case <-w.wake:
			}
			continue
		}
		t := w.clk.NewTimer(wait)
		select {
		case <-w.stop:
			t.Stop()
			return
		case <-w.wake:
			t.Stop()
		case <-t.C():
		}
	}
}

// close flushes any remainder, so a clean Close does not strand accepted
// submissions, and stops the backstop loop. Later submissions fail.
func (w *window) close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.flushLocked() // nobody is left to report a failure to
	w.closed = true
	w.mu.Unlock()
	close(w.stop)
	<-w.done
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
		run, bytes := 1, len(outs[i].Payload)
		for i+run < len(outs) && run < maxBatchMsgs {
			next := outs[i+run]
			if !slices.Equal(outs[i].To, next.To) || bytes+len(next.Payload) > maxBatchBytes {
				break
			}
			bytes += len(next.Payload)
			run++
		}
		if run == 1 {
			merged = append(merged, outs[i])
			i++
			continue
		}
		items := make([]group.BatchItem, run)
		for j := range items {
			items[j] = group.BatchItem{Kind: outs[i+j].Kind, Payload: outs[i+j].Payload}
		}
		merged = append(merged, sm.Output{Kind: group.KindBatch, To: outs[i].To, Payload: group.BatchMsg{Items: items}.Marshal()})
		i += run
	}
	return merged
}
