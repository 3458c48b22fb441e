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

func newORB(t *testing.T, net *netsim.Network, naming *Naming, addr netsim.Addr) *ORB {
	t.Helper()
	o, err := New(Config{Addr: addr, Net: net, Naming: naming})
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
	o := newORB(t, net, naming, "node1")
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
	o1 := newORB(t, net, naming, "node1")
	o2 := newORB(t, net, naming, "node2")
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
	o := newORB(t, net, naming, "node1")
	if err := o.OneWay("caller", "ghost", "m", Any{}); err == nil || !strings.Contains(err.Error(), ErrNoSuchObject.Error()) {
		t.Fatalf("err = %v, want %v", err, ErrNoSuchObject)
	}
}

func TestOneWayInvocation(t *testing.T) {
	net := testNet(t)
	naming := NewNaming()
	o1 := newORB(t, net, naming, "node1")
	o2 := newORB(t, net, naming, "node2")
	srv := &echoServant{}
	o2.Register("obj", srv)
	if err := o1.OneWay("caller", "obj", "echo", BytesAny([]byte("async"))); err != nil {
		t.Fatal(err)
	}
	waitCalls(t, srv, 1)
}

// newRig is an ORB serving an echoServant as "obj"; admit hands it one
// request for it, as the transport's delivery callback does.
func newRig(t *testing.T) (*ORB, *echoServant) {
	t.Helper()
	o, srv := newORB(t, testNet(t), NewNaming(), "node"), &echoServant{}
	o.Register("obj", srv)
	return o, srv
}

func admit(o *ORB, method string) {
	o.onMessage(netsim.Message{Kind: msgRequest, Payload: encodeRequest("c", "obj", method, Any{})})
}

// TestServesConcurrentArrivals: requests that reach one ORB from several
// delivery goroutines at once are each served exactly once.
func TestServesConcurrentArrivals(t *testing.T) {
	const senders, each = 4, 25
	o, srv := newRig(t)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				admit(o, fmt.Sprintf("g%d-%d", g, i))
			}
		}()
	}
	wg.Wait()
	got := srv.received()
	seen := make(map[string]bool)
	for _, call := range got {
		seen[call] = true
	}
	if len(got) != senders*each || len(seen) != senders*each {
		t.Fatalf("served %d calls, %d distinct, want %d once each", len(got), len(seen), senders*each)
	}
}

// TestRequestAfterCloseIsDropped: a request that arrives after Close is
// never served.
func TestRequestAfterCloseIsDropped(t *testing.T) {
	o, srv := newRig(t)
	admit(o, "r1")
	o.Close()
	admit(o, "late")
	if got := srv.received(); fmt.Sprint(got) != "[r1:]" {
		t.Fatalf("served %v: a request outlived Close", got)
	}
}

// TestServesOnDelivery: every request is served on the delivery callback
// itself, so the servant has it when the callback returns, in the order
// its link delivered it.
func TestServesOnDelivery(t *testing.T) {
	o, srv := newRig(t)
	var want []string
	for i := 1; i <= 3; i++ {
		method := fmt.Sprintf("r%d", i)
		want = append(want, method+":")
		admit(o, method)
		if got := srv.received(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after request %d the servant has %v", i, got)
		}
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
