// Package newtop implements the NewTOP Service Object (NSO) of Section 3:
// the crash-tolerant, partitionable group-communication middleware that is
// both the substrate FS-NewTOP extends and the baseline the paper measures
// against.
//
// An NSO bundles two subsystems, exactly as in the paper:
//
//   - the Invocation service — the application-facing layer that marshals
//     multicast requests into the ORB's generic container and unmarshals
//     deliveries back out; and
//   - the Group Communication (GC) service — the deterministic protocol
//     machine of package group, driven here as a plain single process (one
//     group.Driver loop) with a ping-based failure suspector.
//
// NSO-to-NSO traffic travels as ORB one-way invocations on each member's
// "<name>/gc" object, so inbound protocol messages flow through the ORB's
// server request pool (default 10 workers) — the concurrency structure
// whose saturation produces the Figure 7 throughput knee.
package newtop

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/group"
	"fsnewtop/internal/orb"
	"fsnewtop/internal/sm"
	"fsnewtop/internal/trace"
	"fsnewtop/transport"
)

// Delivery is one message handed to the application.
type Delivery struct {
	Group   string
	Origin  string // logical name of the sending member
	Service group.Service
	Payload []byte
}

// View is one installed membership view.
type View struct {
	Group   string
	ViewID  uint64
	Members []string
}

// Service is the application-facing API shared by crash-tolerant NewTOP
// and Byzantine-tolerant FS-NewTOP, so applications (and the benchmark
// harness) are agnostic to which middleware they run on.
type Service interface {
	// Name returns this member's logical name.
	Name() string
	// Join creates/joins a group with a static initial membership.
	Join(groupName string, members []string) error
	// JoinExisting seeks admission into an already-running group through
	// the given contacts (current members): the coordinator transfers a
	// state snapshot and then drives a view change that adds this member.
	JoinExisting(groupName string, contacts []string) error
	// Multicast sends payload to the group with the given service level.
	Multicast(groupName string, svc group.Service, payload []byte) error
	// Deliveries streams delivered messages. The consumer must drain it;
	// an undrained channel applies backpressure to the protocol machine.
	Deliveries() <-chan Delivery
	// Views streams installed views.
	Views() <-chan View
	// Close shuts the member down.
	Close()
}

// deliveryBuffer sizes the delivery and view channels.
const deliveryBuffer = 8192

// Config configures one crash-tolerant NSO.
type Config struct {
	// Name is the member's logical name; peers address its GC object as
	// "<name>/gc".
	Name string
	// Net and Naming are the shared deployment fabric.
	Net    transport.Transport
	Naming *orb.Naming
	// Clock drives timers.
	Clock clock.Clock
	// PoolSize is the ORB request pool size (0 = the paper's default 10).
	PoolSize int
	// ServiceTime simulates per-request ORB processing cost (see
	// orb.Config.ServiceTime).
	ServiceTime time.Duration
	// TickInterval paces GC machine ticks. 0 = 20ms.
	TickInterval time.Duration
	// GC tunes the protocol machine (suspector intervals etc.). Self and
	// Mode are set by the NSO.
	GC group.Config
	// Trace, if non-nil, registers one event ring for this member's GC
	// machine — the crash-tolerant half of the protocol trace plane.
	Trace *trace.Registry
}

// NSO is a crash-tolerant NewTOP member.
type NSO struct {
	name       string
	orb        *orb.ORB
	driver     *group.Driver
	deliveries chan Delivery
	views      chan View
	// stop is closed by Close: a delivery or view hand-off parked on an
	// application that stopped draining gives up, so the driver's loop can
	// return.
	stop      chan struct{}
	closeOnce sync.Once
}

var _ Service = (*NSO)(nil)

// NodeAddr returns the network address of a member's node.
func NodeAddr(name string) transport.Addr { return transport.Addr("node:" + name) }

// GCRef returns the ORB object reference of a member's GC service.
func GCRef(name string) orb.ObjectRef { return orb.ObjectRef(name + "/gc") }

// InvRef returns the ORB object reference of a member's invocation layer.
func InvRef(name string) orb.ObjectRef { return orb.ObjectRef(name + "/inv") }

// memberOfGCRef recovers the member name from a "<name>/gc" reference.
func memberOfGCRef(ref orb.ObjectRef) string {
	return strings.TrimSuffix(string(ref), "/gc")
}

// New builds and starts a crash-tolerant NSO.
func New(cfg Config) (*NSO, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("newtop: member needs a name")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	gcCfg := cfg.GC
	gcCfg.Self = cfg.Name
	gcCfg.Mode = group.SuspectPing
	if cfg.Trace != nil {
		gcCfg.Trace = cfg.Trace.Ring(cfg.Name)
	}

	o, err := orb.New(orb.Config{
		Addr:        NodeAddr(cfg.Name),
		Net:         cfg.Net,
		Naming:      cfg.Naming,
		PoolSize:    cfg.PoolSize,
		ServiceTime: cfg.ServiceTime,
		Clock:       cfg.Clock,
	})
	if err != nil {
		return nil, err
	}

	n := &NSO{
		name:       cfg.Name,
		orb:        o,
		deliveries: make(chan Delivery, deliveryBuffer),
		views:      make(chan View, deliveryBuffer),
		stop:       make(chan struct{}),
	}

	machine := group.New(gcCfg)
	driver, err := group.NewDriver(group.DriverConfig{
		Machine:      machine,
		Clock:        cfg.Clock,
		TickInterval: cfg.TickInterval,
		Send: func(to, kind string, payload []byte) {
			// Peer GC services are plain ORB objects: location-transparent
			// one-way invocations, method = protocol message kind.
			_ = o.OneWay(GCRef(cfg.Name), GCRef(to), kind, orb.BytesAny(payload))
		},
		OnDeliver: func(d group.Deliver) {
			HandOff(n.deliveries, Delivery{Group: d.Group, Origin: d.Origin, Service: d.Service, Payload: d.Payload}, n.stop)
		},
		OnView: func(v group.ViewNote) {
			HandOff(n.views, View{Group: v.Group, ViewID: v.ViewID, Members: v.Members}, n.stop)
		},
	})
	if err != nil {
		o.Close()
		return nil, err
	}
	n.driver = driver
	o.Register(GCRef(cfg.Name), gcServant{driver: driver})
	return n, nil
}

// HandOff sends v to the application, giving up once stop is closed, so a
// member's Close never waits on an application that stopped draining. Both
// NSOs hand over every delivery through it: a send that finds room takes
// the plain channel path, and only a full channel pays for the select.
func HandOff[T any](ch chan<- T, v T, stop <-chan struct{}) {
	select {
	case ch <- v:
		return
	default:
	}
	select {
	case ch <- v:
	case <-stop:
	}
}

// gcServant exposes the GC machine as an ORB object: each one-way
// invocation becomes one machine input, attributed to the calling member.
type gcServant struct {
	driver *group.Driver
}

// Invoke implements orb.Servant. The ORB dispatches to InvokeRequest
// instead, which keeps the caller's identity; every GC call is one-way, so
// the returned value is never read.
func (s gcServant) Invoke(method string, arg orb.Any) (orb.Any, error) {
	s.driver.Submit(sm.Input{Kind: method, Payload: arg.Bytes()})
	return orb.Any{}, nil
}

// InvokeRequest implements orb.RequestServant, preserving the caller
// identity the protocol machine needs.
func (s gcServant) InvokeRequest(req *orb.Request) orb.Reply {
	s.driver.Submit(sm.Input{Kind: req.Method, From: callerMember(req.From), Payload: req.Arg.Bytes()})
	return orb.Reply{}
}

// callerMember attributes a request to a member only when it comes from a
// GC object reference; anything else (invocation layers, strangers) is
// unattributed, so the protocol machine's origin checks reject spoofing.
func callerMember(from orb.ObjectRef) string {
	if strings.HasSuffix(string(from), "/gc") {
		return memberOfGCRef(from)
	}
	return ""
}

// Name implements Service.
func (n *NSO) Name() string { return n.name }

// Join implements Service: the invocation layer submits the join through
// the ORB to the (collocated) GC object.
func (n *NSO) Join(groupName string, members []string) error {
	payload := group.JoinReq{Group: groupName, Members: members}.Marshal()
	return n.orb.OneWay(InvRef(n.name), GCRef(n.name), group.KindJoin, orb.BytesAny(payload))
}

// JoinExisting implements Service: dynamic admission through the given
// contacts, driven entirely by the GC machine's join protocol.
func (n *NSO) JoinExisting(groupName string, contacts []string) error {
	payload := group.JoinExistingReq{Group: groupName, Contacts: contacts}.Marshal()
	return n.orb.OneWay(InvRef(n.name), GCRef(n.name), group.KindJoinExisting, orb.BytesAny(payload))
}

// Multicast implements Service.
func (n *NSO) Multicast(groupName string, svc group.Service, payload []byte) error {
	req := group.McastReq{Group: groupName, Service: svc, Payload: payload}.Marshal()
	return n.orb.OneWay(InvRef(n.name), GCRef(n.name), group.KindMcast, orb.BytesAny(req))
}

// Deliveries implements Service.
func (n *NSO) Deliveries() <-chan Delivery { return n.deliveries }

// Views implements Service.
func (n *NSO) Views() <-chan View { return n.views }

// ORB exposes the member's ORB (interceptor installation, diagnostics).
func (n *NSO) ORB() *orb.ORB { return n.orb }

// Close implements Service: it releases a hand-off parked on the
// application, then stops the driver and the ORB. Idempotent.
func (n *NSO) Close() {
	n.closeOnce.Do(func() {
		close(n.stop)
		n.driver.Close()
		n.orb.Close()
	})
}
