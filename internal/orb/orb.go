// Package orb is the CORBA-like substrate of Section 3: location-
// transparent one-way object invocation, request interceptors, a generic
// value container (the CORBA "any"), and a bounded server-side request
// pool.
//
// Every call NewTOP and FS-NewTOP make through it is one-way: GC traffic
// is a stream of protocol messages, and nothing waits for a result. So
// the ORB has no reply path — a remote invocation is one request message,
// and a servant's return value is discarded.
//
// The paper relies on four ORB mechanisms, all reproduced here:
//
//   - location transparency — an NSO's client "need not reside on the same
//     host" and, in FS-NewTOP, GC' lives on a different node from the
//     invocation layer without either noticing;
//   - interceptors — "a call to NewTOP GC ... is intercepted on the fly"
//     (the Eternal-style technique of [NMM99, NMM00]) — modelled as
//     middleware chains on both the client and server sides;
//   - any marshaling — the invocation service marshals application
//     messages into a generic container;
//   - a configurable server thread pool "with a default of 10 threads to
//     handle incoming requests", whose exhaustion produces the Figure 7
//     throughput knee.
package orb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/codec"
	"fsnewtop/transport"
)

// Any is the generic value container (CORBA any): a self-contained gob
// encoding of an arbitrary value.
type Any struct {
	data []byte
}

// MarshalAny encodes v into an Any.
func MarshalAny(v any) (Any, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return Any{}, fmt.Errorf("orb: marshaling any: %w", err)
	}
	return Any{data: buf.Bytes()}, nil
}

// BytesAny wraps raw bytes without re-encoding (the common case for
// middleware payloads that already have a wire form).
func BytesAny(b []byte) Any { return Any{data: b} }

// Unmarshal decodes the Any into v (a pointer).
func (a Any) Unmarshal(v any) error {
	if err := gob.NewDecoder(bytes.NewReader(a.data)).Decode(v); err != nil {
		return fmt.Errorf("orb: unmarshaling any: %w", err)
	}
	return nil
}

// Bytes returns the raw contents for BytesAny round trips.
func (a Any) Bytes() []byte { return a.data }

// Len returns the encoded size.
func (a Any) Len() int { return len(a.data) }

// ObjectRef names an object in the deployment, e.g. "nso-1/gc".
type ObjectRef string

// Request is one invocation as seen by interceptors and servants.
type Request struct {
	From   ObjectRef
	Target ObjectRef
	Method string
	Arg    Any
}

// Reply is what an interceptor chain makes of a request: a non-empty Err
// is returned to OneWay's caller as an error.
type Reply struct {
	Err string
}

// Servant is a server-side object.
type Servant interface {
	// Invoke handles one method call. The ORB reports a non-nil error to
	// the caller of a collocated call and discards the value.
	Invoke(method string, arg Any) (Any, error)
}

// ServantFunc adapts a function to Servant.
type ServantFunc func(method string, arg Any) (Any, error)

// Invoke implements Servant.
func (f ServantFunc) Invoke(method string, arg Any) (Any, error) { return f(method, arg) }

// RequestServant is an optional richer servant interface for objects that
// need the full request (caller identity). When a servant implements it,
// dispatch prefers it over Invoke.
type RequestServant interface {
	InvokeRequest(*Request) Reply
}

// Handler processes a request to a reply; interceptors wrap handlers.
type Handler func(*Request) Reply

// Interceptor is request middleware. Client interceptors run before a
// request leaves the caller's ORB; server interceptors run before the
// servant dispatch. Either may short-circuit by not calling next — this is
// exactly the hook FS-NewTOP uses to wrap GC transparently (Section 3.1).
type Interceptor func(next Handler) Handler

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

// Errors returned by invocation. They wrap the transport error taxonomy,
// so errors.Is(err, transport.ErrUnknownAddr) and
// errors.Is(err, transport.ErrClosed) hold across the whole stack.
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
	// PoolSize bounds concurrent server-side request processing.
	// Zero selects DefaultPoolSize.
	PoolSize int
	// ServiceTime simulates per-request processing cost inside a pool
	// worker (the 2003 ORB's unmarshal/demultiplex work). Zero disables.
	// With it set, a node's request capacity is PoolSize/ServiceTime —
	// the mechanism behind the paper's Figure 7 thread-pool knee.
	ServiceTime time.Duration
	// Clock drives the simulated service time. Nil selects the wall clock
	// (the package clock contract: no protocol code calls
	// time.Now/time.After directly).
	Clock clock.Clock
}

// ORB is one node's object request broker.
type ORB struct {
	cfg    Config
	pool   *Pool
	client []Interceptor
	server []Interceptor

	mu       sync.Mutex
	servants map[ObjectRef]Servant
	closed   bool
}

// New creates and attaches an ORB at cfg.Addr.
func New(cfg Config) (*ORB, error) {
	if cfg.Addr == "" || cfg.Net == nil || cfg.Naming == nil {
		return nil, fmt.Errorf("orb: Addr, Net and Naming are required")
	}
	if cfg.PoolSize == 0 {
		cfg.PoolSize = DefaultPoolSize
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	o := &ORB{
		cfg:      cfg,
		pool:     NewPool(cfg.PoolSize),
		servants: make(map[ObjectRef]Servant),
	}
	cfg.Net.Register(cfg.Addr, o.onMessage)
	return o, nil
}

// Close detaches the ORB and stops its pool.
func (o *ORB) Close() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
	o.mu.Unlock()
	o.cfg.Net.Deregister(o.cfg.Addr)
	o.pool.Close()
}

// Register exposes a servant under ref and binds it in naming.
func (o *ORB) Register(ref ObjectRef, s Servant) {
	o.mu.Lock()
	o.servants[ref] = s
	o.mu.Unlock()
	o.cfg.Naming.Bind(ref, o.cfg.Addr)
}

// AddClientInterceptor appends client-side middleware (outermost first).
func (o *ORB) AddClientInterceptor(i Interceptor) { o.client = append(o.client, i) }

// AddServerInterceptor appends server-side middleware (outermost first).
func (o *ORB) AddServerInterceptor(i Interceptor) { o.server = append(o.server, i) }

// chain composes interceptors around a base handler.
func chain(is []Interceptor, base Handler) Handler {
	h := base
	for i := len(is) - 1; i >= 0; i-- {
		h = is[i](h)
	}
	return h
}

// OneWay invokes target.method(arg) without waiting for a result.
// Location is transparent: a collocated object is dispatched directly, in
// the caller's goroutine and still through both interceptor chains, and
// its error is returned; a remote object is sent one request message, and
// only a failure to resolve or send it is returned.
func (o *ORB) OneWay(from, target ObjectRef, method string, arg Any) error {
	req := &Request{From: from, Target: target, Method: method, Arg: arg}
	rep := chain(o.client, o.transmit)(req)
	if rep.Err != "" {
		return errors.New(rep.Err)
	}
	return nil
}

// transmit is the innermost client handler: route to a collocated servant
// or marshal onto the wire.
func (o *ORB) transmit(req *Request) Reply {
	o.mu.Lock()
	s, local := o.servants[req.Target]
	closed := o.closed
	o.mu.Unlock()
	if closed {
		return Reply{Err: ErrClosed.Error()}
	}
	if local {
		return chain(o.server, o.dispatch(s))(req)
	}
	addr, ok := o.cfg.Naming.Resolve(req.Target)
	if !ok {
		return Reply{Err: fmt.Sprintf("%v: %q", ErrNoSuchObject, req.Target)}
	}
	if err := o.cfg.Net.Send(o.cfg.Addr, addr, msgRequest, encodeRequest(req)); err != nil {
		return Reply{Err: err.Error()}
	}
	return Reply{}
}

// dispatch builds the innermost server handler around a servant.
func (o *ORB) dispatch(s Servant) Handler {
	return func(req *Request) Reply {
		if rs, ok := s.(RequestServant); ok {
			return rs.InvokeRequest(req)
		}
		if _, err := s.Invoke(req.Method, req.Arg); err != nil {
			return Reply{Err: err.Error()}
		}
		return Reply{}
	}
}

// msgRequest is the network message kind of a remote invocation.
const msgRequest = "orb.req"

// onMessage handles inbound requests. They are queued to the worker pool —
// the paper's "thread pool ... to handle incoming requests" — so at most
// PoolSize requests are processed concurrently per node. A request for an
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
	o.pool.Submit(func() {
		if o.cfg.ServiceTime > 0 {
			<-o.cfg.Clock.After(o.cfg.ServiceTime)
		}
		o.mu.Lock()
		s, ok := o.servants[req.Target]
		o.mu.Unlock()
		if ok {
			chain(o.server, o.dispatch(s))(req)
		}
	})
}

// PoolDepth reports the number of requests queued behind the pool.
func (o *ORB) PoolDepth() int { return o.pool.Backlog() }

func encodeRequest(req *Request) []byte {
	w := codec.NewWriter(len(req.Arg.data) + 64)
	w.String(string(req.From))
	w.String(string(req.Target))
	w.String(req.Method)
	w.Bytes32(req.Arg.data)
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
