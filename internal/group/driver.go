package group

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/sm"
)

// TickInterval is the protocol's one tick: crash NewTOP's driver steps a
// tick input this often, and an FS-NewTOP pair's leader orders one tick
// into its total order this often.
const TickInterval = 20 * time.Millisecond

// DriverConfig wires a GC machine to its environment when it runs as a
// plain (crash-prone) process — the original NewTOP deployment. In
// FS-NewTOP the machine is instead handed to a failsignal pair, which
// supplies ordering, ticks and output dispatch itself.
type DriverConfig struct {
	// Machine is the GC state machine to drive.
	Machine *Machine
	// Clock drives the tick stream (one tick every TickInterval).
	Clock clock.Clock
	// Send transmits one remote output. Required.
	Send func(to, kind string, payload []byte)
	// OnDeliver receives application deliveries. Optional.
	OnDeliver func(Deliver)
	// OnView receives view installations. Optional.
	OnView func(ViewNote)
}

// Driver runs a GC machine as a standalone process on one clock.Loop (see
// pass): external submissions and its own ticks are stepped in arrival
// order, never concurrently.
type Driver struct {
	cfg  DriverConfig
	loop clock.Loop
	// closed is set once, under mu; the loop reads it before every step.
	closed atomic.Bool

	mu    sync.Mutex
	inbox []sm.Input // inputs the loop has not taken yet

	// Owned by the loop's passes.
	steps    []sm.Input // inputs taken over by the loop
	nextTick time.Time
}

// NewDriver starts a driver.
func NewDriver(cfg DriverConfig) (*Driver, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("group: driver needs a machine")
	}
	if cfg.Send == nil {
		return nil, fmt.Errorf("group: driver needs a send function")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	d := &Driver{cfg: cfg, nextTick: cfg.Clock.Now().Add(TickInterval)}
	d.loop = clock.NewLoop(cfg.Clock, d.pass)
	return d, nil
}

// Submit feeds one external input (a message from a peer GC) into the
// machine's queue. Submissions after Close are dropped.
func (d *Driver) Submit(in sm.Input) {
	d.mu.Lock()
	if !d.closed.Load() {
		d.inbox = append(d.inbox, in)
	}
	d.mu.Unlock()
	d.loop.Kick()
}

// Close stops the loop after the current step and waits for it to return.
// Queued inputs are discarded. Idempotent.
func (d *Driver) Close() {
	d.mu.Lock()
	if !d.closed.Load() {
		d.closed.Store(true)
		d.inbox = nil
	}
	d.mu.Unlock()
	d.loop.Stop()
}

// pass is one step of the driver's loop. The inbox is double buffered:
// each pass takes the whole backlog in one swap and steps it without the
// lock, checking for Close before every step. Once the tick is due, the
// swap queues a tick behind the inputs already waiting — the order a
// separate ticker feeding the same queue gave — and sets the next one a
// TickInterval on; a busy loop checks the tick at each swap, not per
// input. An idle loop is aimed at the tick.
func (d *Driver) pass(now time.Time) time.Time {
	due := !now.Before(d.nextTick)
	d.mu.Lock()
	if due {
		d.inbox = append(d.inbox, sm.Tick(now))
	}
	clear(d.steps)
	d.steps, d.inbox = d.inbox, d.steps[:0]
	d.mu.Unlock()
	if due {
		d.nextTick = now.Add(TickInterval)
	}
	if len(d.steps) == 0 {
		return d.nextTick
	}
	for _, in := range d.steps {
		if d.closed.Load() {
			return time.Time{}
		}
		d.dispatch(d.cfg.Machine.Step(in))
	}
	return now
}

// dispatch routes one step's outputs: local deliveries to the callbacks,
// everything else to the transport.
func (d *Driver) dispatch(outs []sm.Output) {
	for _, out := range outs {
		for _, to := range out.To {
			if to != sm.LocalDelivery {
				d.cfg.Send(to, out.Kind, out.Body())
				continue
			}
			d.dispatchLocal(out.Kind, out.Body())
		}
	}
}

// dispatchLocal hands one local output to the application callbacks.
func (d *Driver) dispatchLocal(kind string, payload []byte) {
	switch kind {
	case KindDeliver:
		if d.cfg.OnDeliver != nil {
			if del, err := UnmarshalDeliver(payload); err == nil {
				d.cfg.OnDeliver(del)
			}
		}
	case KindView:
		if d.cfg.OnView != nil {
			if vn, err := UnmarshalViewNote(payload); err == nil {
				d.cfg.OnView(vn)
			}
		}
	}
}
