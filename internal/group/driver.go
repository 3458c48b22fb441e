package group

import (
	"fmt"
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

// Driver runs a GC machine as a standalone process: a single-threaded
// runner fed by external submissions plus a local ticker.
type Driver struct {
	cfg    DriverConfig
	runner *sm.Runner
	stop   chan struct{}
	done   chan struct{}
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
	d := &Driver{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	d.runner = sm.NewRunner(cfg.Machine, d.dispatch)
	go d.tickLoop()
	return d, nil
}

// Submit feeds one external input (a message from a peer GC) into the
// machine's queue.
func (d *Driver) Submit(in sm.Input) { d.runner.Submit(in) }

// Join creates a group with a static initial membership.
func (d *Driver) Join(group string, members []string) {
	d.runner.Submit(sm.Input{Kind: KindJoin, Payload: JoinReq{Group: group, Members: members}.Marshal()})
}

// JoinExisting seeks admission into a running group through the given
// contacts (current members).
func (d *Driver) JoinExisting(group string, contacts []string) {
	d.runner.Submit(sm.Input{Kind: KindJoinExisting, Payload: JoinExistingReq{Group: group, Contacts: contacts}.Marshal()})
}

// Leave abandons a group.
func (d *Driver) Leave(group string) {
	d.runner.Submit(sm.Input{Kind: KindLeave, Payload: LeaveReq{Group: group}.Marshal()})
}

// Multicast requests a multicast with the given service.
func (d *Driver) Multicast(group string, svc Service, payload []byte) {
	d.runner.Submit(sm.Input{Kind: KindMcast, Payload: McastReq{Group: group, Service: svc, Payload: payload}.Marshal()})
}

// Backlog reports queued, unprocessed inputs.
func (d *Driver) Backlog() int { return d.runner.Backlog() }

// Close stops the ticker and the runner.
func (d *Driver) Close() {
	close(d.stop)
	<-d.done
	d.runner.Close()
}

func (d *Driver) tickLoop() {
	defer close(d.done)
	for {
		t := d.cfg.Clock.NewTimer(d.cfg.TickInterval)
		select {
		case <-d.stop:
			t.Stop()
			return
		case <-t.C():
		}
		d.runner.Submit(sm.Tick(d.cfg.Clock.Now()))
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
