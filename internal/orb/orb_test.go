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
	raw := BytesAny([]byte{1, 2, 3})
	if string(raw.Bytes()) != "\x01\x02\x03" {
		t.Fatal("BytesAny mangled contents")
	}
	req := encodeRequest("a", "b", "m", raw)
	got, err := decodeRequest(req)
	if err != nil || string(got.Arg.Bytes()) != "\x01\x02\x03" {
		t.Fatalf("any did not survive the wire: %v %v", got, err)
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

// slotRig is an ORB on clk whose requests reach it as they would from
// the network: admit hands it one request, as the transport's delivery
// callback does. served records each call as "method@offset", the offset
// being the clock's time since the rig was built.
type slotRig struct {
	o      *ORB
	clk    clock.Clock
	t0     time.Time
	mu     sync.Mutex
	served []string
}

func newSlotRig(t *testing.T, clk clock.Clock, slots int, service time.Duration) *slotRig {
	t.Helper()
	net := netsim.New(clk)
	t.Cleanup(net.Close)
	o, err := New(Config{Addr: "node", Net: net, Naming: NewNaming(), PoolSize: slots, ServiceTime: service, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	r := &slotRig{o: o, clk: clk, t0: clk.Now()}
	o.Register("obj", r)
	return r
}

func (r *slotRig) Invoke(method string, _ Any) (Any, error) {
	r.mu.Lock()
	r.served = append(r.served, fmt.Sprintf("%s@%v", method, r.clk.Since(r.t0)))
	r.mu.Unlock()
	return Any{}, nil
}

func (r *slotRig) admit(method string) {
	r.o.onMessage(netsim.Message{Kind: msgRequest, Payload: encodeRequest("c", "obj", method, Any{})})
}

func (r *slotRig) log() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.served...)
}

// slotSchedule is what k service slots of service time s make of n
// requests that arrive together: the i-th (from 1) is served at
// ceil(i/k)·s, in arrival order.
func slotSchedule(n, k int, s time.Duration) []string {
	var want []string
	for i := 1; i <= n; i++ {
		want = append(want, fmt.Sprintf("r%d@%v", i, time.Duration((i+k-1)/k)*s))
	}
	return want
}

// TestPoolBoundsConcurrency: the request pool is PoolSize service slots.
// N requests that arrive at one instant are served in arrival order, the
// i-th at ceil(i/k)·ServiceTime, on a manual clock (stepped one service
// time at a time: no request is served early) and on a virtual one (the
// drain callback is a step of its driver).
func TestPoolBoundsConcurrency(t *testing.T) {
	const n, k, s = 10, 3, 300 * time.Microsecond
	want := slotSchedule(n, k, s)
	t.Run("manual", func(t *testing.T) {
		m := clock.NewManual()
		r := newSlotRig(t, m, k, s)
		for i := 1; i <= n; i++ {
			r.admit(fmt.Sprintf("r%d", i))
		}
		for step := 0; step <= (n+k-1)/k; step++ {
			if got, served := r.log(), min(step*k, n); fmt.Sprint(got) != fmt.Sprint(want[:served]) {
				t.Fatalf("after %v: served %v, want %v", time.Duration(step)*s, got, want[:served])
			}
			m.Advance(s)
		}
	})
	t.Run("virtual", func(t *testing.T) {
		v := clock.NewVirtual()
		defer v.Stop()
		r := newSlotRig(t, v, k, s)
		v.AfterFunc(0, func() {
			for i := 1; i <= n; i++ {
				r.admit(fmt.Sprintf("r%d", i))
			}
		})
		deadline := time.Now().Add(5 * time.Second)
		for len(r.log()) < n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := r.log(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("served %v, want %v", got, want)
		}
	})
}

// TestPoolServesConcurrentArrivals: requests that reach one ORB from
// several delivery goroutines at once, on the wall clock, are each served
// exactly once.
func TestPoolServesConcurrentArrivals(t *testing.T) {
	const senders, each, k = 4, 25, 3
	r := newSlotRig(t, clock.NewReal(), k, 100*time.Microsecond)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.admit(fmt.Sprintf("g%d-%d", g, i))
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for len(r.log()) < senders*each && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	seen := make(map[string]bool)
	for _, call := range r.log() {
		seen[strings.SplitN(call, "@", 2)[0]] = true
	}
	if len(r.log()) != senders*each || len(seen) != senders*each {
		t.Fatalf("served %d calls, %d distinct, want %d once each", len(r.log()), len(seen), senders*each)
	}
}

// TestPoolCloseDiscardsQueue: Close drops the requests waiting for a slot,
// and a request that arrives after Close is never served.
func TestPoolCloseDiscardsQueue(t *testing.T) {
	const s = time.Millisecond
	m := clock.NewManual()
	r := newSlotRig(t, m, 1, s)
	for i := 1; i <= 3; i++ {
		r.admit(fmt.Sprintf("r%d", i))
	}
	m.Advance(s)
	r.o.Close()
	r.admit("late")
	m.Advance(10 * s)
	if got := r.log(); fmt.Sprint(got) != fmt.Sprint(slotSchedule(1, 1, s)) {
		t.Fatalf("served %v: the queue outlived Close", got)
	}
	if m.Pending() != 0 {
		t.Fatalf("%d timers still armed after Close", m.Pending())
	}
}

// TestZeroServiceTimeServesOnDelivery: with no service time every request
// is due at its arrival, so it is served on the delivery callback itself —
// which keeps the order a link delivers in — and no timer is armed.
func TestZeroServiceTimeServesOnDelivery(t *testing.T) {
	m := clock.NewManual()
	r := newSlotRig(t, m, 1, 0)
	for i := 1; i <= 3; i++ {
		r.admit(fmt.Sprintf("r%d", i))
		if got := r.log(); len(got) != i || got[i-1] != fmt.Sprintf("r%d@0s", i) {
			t.Fatalf("after request %d the servant has %v", i, got)
		}
	}
	if m.Pending() != 0 {
		t.Fatalf("%d timers armed with no service time", m.Pending())
	}
}

// TestRequestReplyWireRoundTrip covers the one message the ORB puts on
// the wire: a request round-trips, and garbage does not decode.
func TestRequestReplyWireRoundTrip(t *testing.T) {
	got, err := decodeRequest(encodeRequest("a", "b", "m", BytesAny([]byte("zz"))))
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
