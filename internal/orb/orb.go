// Package orb is the CORBA-like substrate of Section 3: location-
// transparent one-way object invocation and a generic value container
// (the CORBA "any").
//
// Only crash-tolerant NewTOP runs on it: an FS-NewTOP member re-issues its
// GC-bound calls into its fail-signal pair directly (package fsnewtop), so
// it has no ORB, and nothing here intercepts a call. Every call is one-way:
// nothing waits for a result, so a remote invocation is one request
// message, and a servant's return value is discarded.
//
// The ORB starts no goroutine and arms no timer: a remote request is
// served on the transport's delivery callback, in the order its link
// delivers it. The paper's prototype served requests on "a configurable
// thread pool with a default of 10 threads" and blames that pool for the
// Figure 7 throughput knee; that knee is not modelled (DESIGN.md,
// "Substitutions").
package orb

import (
	"fmt"
	"sync"

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

// Config configures an ORB.
type Config struct {
	// Addr is this ORB's network endpoint (one per node).
	Addr transport.Addr
	// Net is the shared network.
	Net transport.Transport
	// Naming is the shared naming service.
	Naming *Naming
}

// ORB is one node's object request broker.
type ORB struct {
	cfg Config

	mu       sync.Mutex
	servants map[ObjectRef]Servant
	closed   bool
}

// New creates and attaches an ORB at cfg.Addr.
func New(cfg Config) (*ORB, error) {
	if cfg.Addr == "" || cfg.Net == nil || cfg.Naming == nil {
		return nil, fmt.Errorf("orb: Addr, Net and Naming are required")
	}
	o := &ORB{cfg: cfg, servants: make(map[ObjectRef]Servant)}
	cfg.Net.Register(cfg.Addr, o.onMessage)
	return o, nil
}

// Close detaches the ORB; a request that arrives after it is dropped.
func (o *ORB) Close() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
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

// onMessage serves an inbound request on the transport's delivery
// callback, so requests keep their link's FIFO order. A request for an
// object this ORB does not serve is dropped: there is no caller waiting to
// be told.
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
	closed := o.closed
	o.mu.Unlock()
	if ok && !closed {
		_ = serve(s, req)
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
