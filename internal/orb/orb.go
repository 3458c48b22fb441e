// Package orb is the CORBA-like substrate of Section 3: location-
// transparent one-way object invocation, a generic value container (the
// CORBA "any"), and the server's request pool.
//
// Only crash-tolerant NewTOP runs on it: an FS-NewTOP member re-issues its
// GC-bound calls into its fail-signal pair directly (package fsnewtop), so
// it has no ORB, and nothing here intercepts a call. Every call is one-way:
// nothing waits for a result, so a remote invocation is one request
// message, and a servant's return value is discarded.
//
// The paper's prototype handles incoming requests on "a configurable
// thread pool with a default of 10 threads", whose exhaustion produces the
// Figure 7 throughput knee. Here the pool is a model, not threads:
// PoolSize service slots, each busy for ServiceTime per request. The ORB
// starts no goroutine. A remote request is served on the transport's
// delivery callback or, while it waits for a slot, on a clock callback —
// on a virtual clock, a step of the clock's driver.
package orb

import (
	"fmt"
	"sync"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/codec"
	"fsnewtop/transport"
)

// Any is the generic value container (CORBA any): the bytes of a value
// that already has a wire form.
type Any struct {
	data []byte
}

// BytesAny wraps raw bytes without re-encoding.
func BytesAny(b []byte) Any { return Any{data: b} }

// Bytes returns the contents.
func (a Any) Bytes() []byte { return a.data }

// ObjectRef names an object in the deployment, e.g. "m00/gc".
type ObjectRef string

// Request is one invocation as a RequestServant sees it.
type Request struct {
	From   ObjectRef
	Target ObjectRef
	Method string
	Arg    Any
}

// Servant is a server-side object.
type Servant interface {
	// Invoke handles one method call. The ORB reports a non-nil error to
	// the caller of a collocated call and discards the value.
	Invoke(method string, arg Any) (Any, error)
}

// RequestServant is an optional richer servant interface for objects that
// need the full request (caller identity). When a servant implements it,
// dispatch prefers it over Invoke.
type RequestServant interface {
	InvokeRequest(*Request) error
}

// Naming is the deployment-wide object locator (the naming service). All
// ORBs of one deployment share it. Safe for concurrent use; the zero value
// is ready.
type Naming struct {
	mu    sync.RWMutex
	where map[ObjectRef]transport.Addr
}

// NewNaming returns an empty naming service.
func NewNaming() *Naming { return &Naming{} }

// Bind records that ref is served by the ORB at addr.
func (n *Naming) Bind(ref ObjectRef, addr transport.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.where == nil {
		n.where = make(map[ObjectRef]transport.Addr)
	}
	n.where[ref] = addr
}

// Resolve finds the ORB address serving ref.
func (n *Naming) Resolve(ref ObjectRef) (transport.Addr, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	a, ok := n.where[ref]
	return a, ok
}

// Errors returned by invocation. They wrap the transport error taxonomy
// (transport.ErrUnknownAddr, transport.ErrClosed) for errors.Is.
var (
	ErrNoSuchObject = fmt.Errorf("orb: object not found: %w", transport.ErrUnknownAddr)
	ErrClosed       = fmt.Errorf("orb: ORB closed: %w", transport.ErrClosed)
)

// DefaultPoolSize is the server request pool size used by the paper's
// prototype ("a configurable thread pool with a default of 10 threads").
const DefaultPoolSize = 10

// Config configures an ORB.
type Config struct {
	// Addr is this ORB's network endpoint (one per node).
	Addr transport.Addr
	// Net is the shared network.
	Net transport.Transport
	// Naming is the shared naming service.
	Naming *Naming
	// PoolSize is the number of service slots of the request pool: at
	// most PoolSize requests are in service at once. Zero selects
	// DefaultPoolSize.
	PoolSize int
	// ServiceTime models the per-request processing cost of the 2003 ORB
	// (unmarshal, demultiplex): each request holds a slot for it, so a
	// node serves at most PoolSize/ServiceTime requests a second — the
	// mechanism behind the paper's Figure 7 thread-pool knee. Zero serves
	// every request the moment it arrives.
	ServiceTime time.Duration
	// Clock times the service slots. Nil selects the wall clock.
	Clock clock.Clock
}

// ORB is one node's object request broker.
type ORB struct {
	cfg Config

	mu       sync.Mutex
	servants map[ObjectRef]Servant
	closed   bool
	// The request pool: each slot's busy-until instant, and the requests
	// admitted but not yet served, in arrival order — which is due order,
	// since a later request never takes a slot that frees sooner.
	slots []time.Time
	queue []queued
	drain clock.Timer // armed for queue[0]; nil while none waits
}

// queued is one admitted request and the instant its service ends.
type queued struct {
	due time.Time
	s   Servant
	req *Request
}

// New creates and attaches an ORB at cfg.Addr.
func New(cfg Config) (*ORB, error) {
	if cfg.Addr == "" || cfg.Net == nil || cfg.Naming == nil {
		return nil, fmt.Errorf("orb: Addr, Net and Naming are required")
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = DefaultPoolSize
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	o := &ORB{
		cfg:      cfg,
		servants: make(map[ObjectRef]Servant),
		slots:    make([]time.Time, cfg.PoolSize),
	}
	cfg.Net.Register(cfg.Addr, o.onMessage)
	return o, nil
}

// Close detaches the ORB and drops the requests waiting for a slot.
func (o *ORB) Close() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
	o.queue = nil
	if o.drain != nil {
		o.drain.Stop()
		o.drain = nil
	}
	o.mu.Unlock()
	o.cfg.Net.Deregister(o.cfg.Addr)
}

// Register exposes a servant under ref and binds it in naming.
func (o *ORB) Register(ref ObjectRef, s Servant) {
	o.mu.Lock()
	o.servants[ref] = s
	o.mu.Unlock()
	o.cfg.Naming.Bind(ref, o.cfg.Addr)
}

// OneWay invokes target.method(arg) without waiting for a result.
// Location is transparent: a collocated object is dispatched directly, in
// the caller's goroutine, and its error is returned; a remote object is
// sent one request message, and only a failure to resolve or send it is
// returned.
func (o *ORB) OneWay(from, target ObjectRef, method string, arg Any) error {
	o.mu.Lock()
	s, local := o.servants[target]
	closed := o.closed
	o.mu.Unlock()
	switch {
	case closed:
		return ErrClosed
	case local:
		return serve(s, &Request{From: from, Target: target, Method: method, Arg: arg})
	}
	addr, ok := o.cfg.Naming.Resolve(target)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchObject, target)
	}
	return o.cfg.Net.Send(o.cfg.Addr, addr, msgRequest, encodeRequest(from, target, method, arg))
}

// serve hands one request to its servant.
func serve(s Servant, req *Request) error {
	if rs, ok := s.(RequestServant); ok {
		return rs.InvokeRequest(req)
	}
	_, err := s.Invoke(req.Method, req.Arg)
	return err
}

// msgRequest is the network message kind of a remote invocation.
const msgRequest = "orb.req"

// onMessage admits an inbound request to the pool — the paper's "thread
// pool ... to handle incoming requests". A request for an object this ORB
// does not serve is dropped: there is no caller waiting to be told.
//
// The one admission rule: a request takes the slot that frees first and
// is served ServiceTime after it gets it, at max(arrival, slot free) +
// ServiceTime, in arrival order. A request due at its arrival (always,
// when ServiceTime is zero) is served at once, on the transport's delivery
// callback, so requests keep their link's FIFO order; a later one waits in
// the queue for the drain callback.
func (o *ORB) onMessage(msg transport.Message) {
	if msg.Kind != msgRequest {
		return
	}
	req, err := decodeRequest(msg.Payload)
	if err != nil {
		return
	}
	o.mu.Lock()
	s, ok := o.servants[req.Target]
	if !ok || o.closed {
		o.mu.Unlock()
		return
	}
	now := o.cfg.Clock.Now()
	slot := 0
	for i, free := range o.slots {
		if free.Before(o.slots[slot]) {
			slot = i
		}
	}
	due := o.slots[slot]
	if due.Before(now) {
		due = now
	}
	due = due.Add(o.cfg.ServiceTime)
	o.slots[slot] = due
	if !due.After(now) && len(o.queue) == 0 {
		o.mu.Unlock()
		_ = serve(s, req)
		return
	}
	o.queue = append(o.queue, queued{due: due, s: s, req: req})
	if o.drain == nil {
		o.drain = o.cfg.Clock.AfterFunc(due.Sub(now), o.serveDue)
	}
	o.mu.Unlock()
}

// serveDue is the drain callback: it serves every waiting request whose
// service has ended, in order, and re-arms itself for the next one.
func (o *ORB) serveDue() {
	for {
		o.mu.Lock()
		if o.closed {
			o.mu.Unlock()
			return
		}
		if len(o.queue) == 0 {
			o.drain = nil
			o.mu.Unlock()
			return
		}
		q := o.queue[0]
		if now := o.cfg.Clock.Now(); q.due.After(now) {
			o.drain = o.cfg.Clock.AfterFunc(q.due.Sub(now), o.serveDue)
			o.mu.Unlock()
			return
		}
		o.queue[0] = queued{}
		o.queue = o.queue[1:]
		o.mu.Unlock()
		_ = serve(q.s, q.req)
	}
}

func encodeRequest(from, target ObjectRef, method string, arg Any) []byte {
	w := codec.NewWriter(len(arg.data) + 64)
	w.String(string(from))
	w.String(string(target))
	w.String(method)
	w.Bytes32(arg.data)
	return w.Bytes()
}

func decodeRequest(b []byte) (*Request, error) {
	r := codec.NewReader(b)
	req := &Request{
		From:   ObjectRef(r.String()),
		Target: ObjectRef(r.String()),
		Method: r.String(),
	}
	req.Arg = Any{data: r.Bytes32()}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("orb: decoding request: %w", err)
	}
	return req, nil
}
