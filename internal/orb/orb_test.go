package orb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/transport/netsim"
)

func testNet(t *testing.T) *netsim.Network {
	t.Helper()
	n := netsim.New(clock.NewReal(), netsim.WithDefaultProfile(netsim.Profile{Latency: netsim.Fixed(50 * time.Microsecond)}))
	t.Cleanup(n.Close)
	return n
}

func newORB(t *testing.T, net *netsim.Network, naming *Naming, addr netsim.Addr, pool int) *ORB {
	t.Helper()
	o, err := New(Config{Addr: addr, Net: net, Naming: naming, PoolSize: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return o
}

// echoServant records every call it handles and refuses method "fail".
type echoServant struct {
	mu    sync.Mutex
	got   []string // "method:arg" per call, in arrival order
	calls atomic.Int64
}

func (e *echoServant) Invoke(method string, arg Any) (Any, error) {
	e.mu.Lock()
	e.got = append(e.got, method+":"+string(arg.Bytes()))
	e.mu.Unlock()
	e.calls.Add(1)
	if method == "fail" {
		return Any{}, errors.New("servant says no")
	}
	return arg, nil
}

// received returns the calls handled so far.
func (e *echoServant) received() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.got...)
}

// waitCalls waits until the servant has handled n calls.
func waitCalls(t *testing.T, e *echoServant, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for e.calls.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("servant handled %d calls, want %d", e.calls.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAnyRoundTrip(t *testing.T) {
	type record struct {
		Name string
		N    int
	}
	a, err := MarshalAny(record{Name: "x", N: 42})
	if err != nil {
		t.Fatal(err)
	}
	var out record
	if err := a.Unmarshal(&out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "x" || out.N != 42 {
		t.Fatalf("round trip = %+v", out)
	}
	if a.Len() == 0 {
		t.Fatal("Len = 0")
	}
	raw := BytesAny([]byte{1, 2, 3})
	if string(raw.Bytes()) != "\x01\x02\x03" {
		t.Fatal("BytesAny mangled contents")
	}
}

// TestLocalInvocation: a collocated call is dispatched in the caller's
// goroutine, so the servant has it when OneWay returns, and the servant's
// error reaches the caller.
func TestLocalInvocation(t *testing.T) {
	net := testNet(t)
	naming := NewNaming()
	o := newORB(t, net, naming, "node1", 4)
	srv := &echoServant{}
	o.Register("obj", srv)
	if err := o.OneWay("caller", "obj", "echo", BytesAny([]byte("hi"))); err != nil {
		t.Fatal(err)
	}
	if got := srv.received(); fmt.Sprint(got) != "[echo:hi]" {
		t.Fatalf("servant got %q, want [echo:hi]", got)
	}
	if err := o.OneWay("caller", "obj", "fail", Any{}); err == nil || !strings.Contains(err.Error(), "servant says no") {
		t.Fatalf("err = %v, want the servant's error", err)
	}
}

func TestRemoteInvocationLocationTransparent(t *testing.T) {
	net := testNet(t)
	naming := NewNaming()
	o1 := newORB(t, net, naming, "node1", 4)
	o2 := newORB(t, net, naming, "node2", 4)
	srv := &echoServant{}
	o2.Register("remote-obj", srv)

	// o1 invokes by reference only; the location comes from naming.
	if err := o1.OneWay("caller", "remote-obj", "echo", BytesAny([]byte("over the wire"))); err != nil {
		t.Fatal(err)
	}
	waitCalls(t, srv, 1)
	if got := srv.received(); fmt.Sprint(got) != "[echo:over the wire]" {
		t.Fatalf("servant got %q", got)
	}
}

func TestInvokeUnknownObject(t *testing.T) {
	net := testNet(t)
	naming := NewNaming()
	o := newORB(t, net, naming, "node1", 4)
	if err := o.OneWay("caller", "ghost", "m", Any{}); err == nil || !strings.Contains(err.Error(), ErrNoSuchObject.Error()) {
		t.Fatalf("err = %v, want %v", err, ErrNoSuchObject)
	}
}

func TestOneWayInvocation(t *testing.T) {
	net := testNet(t)
	naming := NewNaming()
	o1 := newORB(t, net, naming, "node1", 4)
	o2 := newORB(t, net, naming, "node2", 4)
	srv := &echoServant{}
	o2.Register("obj", srv)
	if err := o1.OneWay("caller", "obj", "echo", BytesAny([]byte("async"))); err != nil {
		t.Fatal(err)
	}
	waitCalls(t, srv, 1)
}

func TestClientInterceptorShortCircuits(t *testing.T) {
	net := testNet(t)
	naming := NewNaming()
	o := newORB(t, net, naming, "node1", 4)
	var hijacked []string
	o.AddClientInterceptor(func(next Handler) Handler {
		return func(req *Request) Reply {
			if req.Target == "gc" {
				// The FS-NewTOP pattern: hijack calls to the GC object, which
				// no ORB serves, and report the re-issue's failure back.
				hijacked = append(hijacked, string(req.Arg.Bytes()))
				if req.Method == "refuse" {
					return Reply{Err: "window closed"}
				}
				return Reply{}
			}
			return next(req)
		}
	})
	srv := &echoServant{}
	o.Register("other", srv)
	if err := o.OneWay("caller", "gc", "submit", BytesAny([]byte("m1"))); err != nil {
		t.Fatal(err)
	}
	if err := o.OneWay("caller", "gc", "refuse", BytesAny([]byte("m2"))); err == nil || err.Error() != "window closed" {
		t.Fatalf("err = %v, want the interceptor's error", err)
	}
	if fmt.Sprint(hijacked) != "[m1 m2]" {
		t.Fatalf("interceptor saw %q", hijacked)
	}
	// Other targets flow through untouched.
	if err := o.OneWay("caller", "other", "echo", BytesAny([]byte("pass"))); err != nil {
		t.Fatal(err)
	}
	if got := srv.received(); fmt.Sprint(got) != "[echo:pass]" {
		t.Fatalf("pass-through failed: servant got %q", got)
	}
}

func TestServerInterceptorObservesAndSuppresses(t *testing.T) {
	net := testNet(t)
	naming := NewNaming()
	o1 := newORB(t, net, naming, "node1", 4)
	// One pool worker: requests are served in arrival order, so once the
	// second has reached the servant the first has been fully handled.
	o2 := newORB(t, net, naming, "node2", 1)
	srv := &echoServant{}
	o2.Register("obj", srv)
	var seen atomic.Int64
	o2.AddServerInterceptor(func(next Handler) Handler {
		return func(req *Request) Reply {
			seen.Add(1)
			if req.Method == "drop" {
				return Reply{} // suppressed: servant never sees it
			}
			return next(req)
		}
	})
	if err := o1.OneWay("c", "obj", "drop", Any{}); err != nil {
		t.Fatal(err)
	}
	if err := o1.OneWay("c", "obj", "echo", Any{}); err != nil {
		t.Fatal(err)
	}
	waitCalls(t, srv, 1)
	if got := srv.received(); fmt.Sprint(got) != "[echo:]" || seen.Load() != 2 {
		t.Fatalf("servant got %q, interceptor saw %d", got, seen.Load())
	}
}

func TestInterceptorOrdering(t *testing.T) {
	net := testNet(t)
	naming := NewNaming()
	o := newORB(t, net, naming, "node1", 4)
	var order []string
	var mu sync.Mutex
	mk := func(name string) Interceptor {
		return func(next Handler) Handler {
			return func(req *Request) Reply {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return next(req)
			}
		}
	}
	o.AddClientInterceptor(mk("c1"))
	o.AddClientInterceptor(mk("c2"))
	o.AddServerInterceptor(mk("s1"))
	o.Register("obj", &echoServant{})
	if err := o.OneWay("caller", "obj", "echo", Any{}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"c1", "c2", "s1"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		p.Submit(func() {
			defer wg.Done()
			n := cur.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
		})
	}
	wg.Wait()
	if got := peak.Load(); got > 3 {
		t.Fatalf("peak concurrency %d exceeds pool size 3", got)
	}
	if p.Size() != 3 {
		t.Fatalf("Size = %d", p.Size())
	}
}

func TestPoolCloseDiscardsQueue(t *testing.T) {
	p := NewPool(1)
	block := make(chan struct{})
	started := make(chan struct{})
	p.Submit(func() { close(started); <-block })
	<-started
	var ran atomic.Bool
	p.Submit(func() { ran.Store(true) })
	close(block)
	p.Close()
	if ran.Load() {
		t.Fatal("queued task ran after Close")
	}
	p.Submit(func() { ran.Store(true) }) // dropped
	if p.Backlog() != 0 {
		t.Fatal("submit after close queued a task")
	}
}

// TestRequestReplyWireRoundTrip covers the one message the ORB puts on
// the wire: a request round-trips, and garbage does not decode.
func TestRequestReplyWireRoundTrip(t *testing.T) {
	req := &Request{From: "a", Target: "b", Method: "m", Arg: BytesAny([]byte("zz"))}
	got, err := decodeRequest(encodeRequest(req))
	if err != nil || got.From != "a" || got.Target != "b" || got.Method != "m" || string(got.Arg.Bytes()) != "zz" {
		t.Fatalf("request round trip: %+v %v", got, err)
	}
	if _, err := decodeRequest([]byte{1}); err == nil {
		t.Fatal("garbage request decoded")
	}
}

func TestORBConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}
