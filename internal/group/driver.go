package group

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/sm"
)

// DriverConfig wires a GC machine to its environment when it runs as a
// plain (crash-prone) process — the original NewTOP deployment. In
// FS-NewTOP the machine is instead handed to a failsignal pair, which
// supplies ordering, ticks and output dispatch itself.
type DriverConfig struct {
	// Machine is the GC state machine to drive.
	Machine *Machine
	// Clock drives the tick stream.
	Clock clock.Clock
	// TickInterval paces tick inputs. Default 20ms.
	TickInterval time.Duration
	// Send transmits one remote output. Required.
	Send func(to, kind string, payload []byte)
	// OnDeliver receives application deliveries. Optional.
	OnDeliver func(Deliver)
	// OnView receives view installations. Optional.
	OnView func(ViewNote)
}

// Driver runs a GC machine as a standalone process on one goroutine, its
// loop (see run): external submissions and its own ticks are stepped in
// arrival order, never concurrently.
type Driver struct {
	cfg  DriverConfig
	wake chan struct{} // cap 1: a new input or a stop
	done chan struct{} // closed when the loop has returned
	// closed is set once, under mu; the loop reads it before every step.
	closed atomic.Bool

	mu    sync.Mutex
	inbox []sm.Input // inputs the loop has not taken yet
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
	if cfg.TickInterval == 0 {
		cfg.TickInterval = 20 * time.Millisecond
	}
	d := &Driver{cfg: cfg, wake: make(chan struct{}, 1), done: make(chan struct{})}
	go d.run()
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
	d.kick()
}

// Join creates a group with a static initial membership.
func (d *Driver) Join(group string, members []string) {
	d.Submit(sm.Input{Kind: KindJoin, Payload: JoinReq{Group: group, Members: members}.Marshal()})
}

// JoinExisting seeks admission into a running group through the given
// contacts (current members).
func (d *Driver) JoinExisting(group string, contacts []string) {
	d.Submit(sm.Input{Kind: KindJoinExisting, Payload: JoinExistingReq{Group: group, Contacts: contacts}.Marshal()})
}

// Multicast requests a multicast with the given service.
func (d *Driver) Multicast(group string, svc Service, payload []byte) {
	d.Submit(sm.Input{Kind: KindMcast, Payload: McastReq{Group: group, Service: svc, Payload: payload}.Marshal()})
}

// Close stops the loop after the current step and waits for it to return.
// Queued inputs are discarded. Idempotent.
func (d *Driver) Close() {
	d.mu.Lock()
	if !d.closed.Load() {
		d.closed.Store(true)
		d.inbox = nil
		d.kick()
	}
	d.mu.Unlock()
	<-d.done
}

// kick wakes the loop; a wake already pending covers this one.
func (d *Driver) kick() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// run is the driver's one goroutine. The inbox is double buffered: the
// loop takes the whole backlog in one swap and steps it without the lock,
// checking for Close before every pass. One clock timer paces the ticks:
// once it has fired, the next swap queues a tick behind the inputs already
// waiting — the order a separate ticker feeding the same queue gave — and
// re-arms it. A busy loop polls the timer at each swap; an idle one parks
// on the wake channel and the timer.
func (d *Driver) run() {
	defer close(d.done)
	var (
		steps []sm.Input // inputs taken over by the loop
		next  int        // the next of steps to run
		due   bool       // the tick timer has fired
		tm    = d.cfg.Clock.NewTimer(d.cfg.TickInterval)
	)
	defer func() { tm.Stop() }()
	for {
		if d.closed.Load() {
			return
		}
		if next == len(steps) {
			select {
			case <-tm.C():
				due = true
			default:
			}
			d.mu.Lock()
			if due {
				d.inbox = append(d.inbox, sm.Tick(d.cfg.Clock.Now()))
			}
			clear(steps)
			steps, d.inbox, next = d.inbox, steps[:0], 0
			d.mu.Unlock()
			if due {
				due = false
				tm = d.cfg.Clock.NewTimer(d.cfg.TickInterval)
			}
			if len(steps) == 0 {
				select {
				case <-d.wake:
				case <-tm.C():
					due = true
				}
				continue
			}
		}
		in := steps[next]
		next++
		d.dispatch(d.cfg.Machine.Step(in))
	}
}

// dispatch routes one step's outputs: local deliveries to the callbacks,
// everything else to the transport.
func (d *Driver) dispatch(outs []sm.Output) {
	for _, out := range outs {
		for _, to := range out.To {
			if to != sm.LocalDelivery {
				d.cfg.Send(to, out.Kind, out.Payload)
				continue
			}
			d.dispatchLocal(out.Kind, out.Payload)
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
