package newtop

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/codec"
	"fsnewtop/internal/group"
	"fsnewtop/internal/orb"
	"fsnewtop/transport"
	"fsnewtop/transport/netsim"
)

// collector drains a member's delivery and view channels.
type collector struct {
	mu    sync.Mutex
	msgs  []Delivery
	views []View
	done  chan struct{}
}

func collect(svc Service) *collector {
	c := &collector{done: make(chan struct{})}
	go func() {
		for {
			select {
			case d, ok := <-svc.Deliveries():
				if !ok {
					return
				}
				c.mu.Lock()
				c.msgs = append(c.msgs, d)
				c.mu.Unlock()
			case v, ok := <-svc.Views():
				if !ok {
					return
				}
				c.mu.Lock()
				c.views = append(c.views, v)
				c.mu.Unlock()
			case <-c.done:
				return
			}
		}
	}()
	return c
}

func (c *collector) stop() { close(c.done) }

func (c *collector) payloads() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.msgs))
	for i, d := range c.msgs {
		out[i] = string(d.Payload)
	}
	return out
}

func (c *collector) waitN(t *testing.T, n int, d time.Duration) []string {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		got := c.payloads()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d of %d deliveries: %v", len(got), n, got)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *collector) lastView() View {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.views) == 0 {
		return View{}
	}
	return c.views[len(c.views)-1]
}

type cluster struct {
	net     *netsim.Network
	members []string
	nsos    map[string]*NSO
	cols    map[string]*collector
}

func newCluster(t *testing.T, n int, gc group.Config) *cluster {
	t.Helper()
	return newClusterOver(t, n, gc, nil)
}

// newClusterOver is newCluster with the members' transport decorated by
// wrap (nil: the bare network).
func newClusterOver(t *testing.T, n int, gc group.Config, wrap func(transport.Transport) transport.Transport) *cluster {
	t.Helper()
	net := netsim.New(clock.NewReal(), netsim.WithDefaultProfile(netsim.Profile{Latency: netsim.Fixed(100 * time.Microsecond)}))
	t.Cleanup(net.Close)
	var tr transport.Transport = net
	if wrap != nil {
		tr = wrap(net)
	}
	naming := orb.NewNaming()
	c := &cluster{net: net, nsos: make(map[string]*NSO), cols: make(map[string]*collector)}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("m%02d", i)
		c.members = append(c.members, name)
	}
	for _, name := range c.members {
		nso, err := New(Config{
			Name:   name,
			Net:    tr,
			Naming: naming,
			Clock:  clock.NewReal(),
			GC:     gc,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.nsos[name] = nso
		col := collect(nso)
		c.cols[name] = col
		t.Cleanup(func() { col.stop(); nso.Close() })
	}
	return c
}

func (c *cluster) joinAll(t *testing.T, groupName string) {
	t.Helper()
	for _, m := range c.members {
		if err := c.nsos[m].Join(groupName, c.members); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewTOPSymmetricTotalOrder(t *testing.T) {
	c := newCluster(t, 3, group.Config{SuspectAfter: time.Minute})
	c.joinAll(t, "g")
	const per = 15
	for i := 0; i < per; i++ {
		for _, m := range c.members {
			if err := c.nsos[m].Multicast("g", group.TotalSym, []byte(fmt.Sprintf("%s#%d", m, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := per * len(c.members)
	ref := c.cols[c.members[0]].waitN(t, total, 20*time.Second)
	for _, m := range c.members[1:] {
		got := c.cols[m].waitN(t, total, 20*time.Second)
		if !reflect.DeepEqual(got[:total], ref[:total]) {
			t.Fatalf("total order differs between %s and %s", c.members[0], m)
		}
	}
}

// methodCounter is a transport decorator that reads the method of every
// ORB request on its way out — a GC-to-GC invocation's method is the
// protocol message's kind.
type methodCounter struct {
	transport.Transport
	mu      sync.Mutex
	methods map[string]int
}

func (m *methodCounter) Send(from, to transport.Addr, kind string, payload []byte) error {
	if kind == "orb.req" {
		r := codec.NewReader(payload)
		_, _ = r.String(), r.String() // caller, target
		method := r.String()
		m.mu.Lock()
		m.methods[method]++
		m.mu.Unlock()
	}
	return m.Transport.Send(from, to, kind, payload)
}

// TestNewTOPNeverSeesBatch: batching is FS-NewTOP's alone. A
// crash-tolerant member under a burst sends every protocol message on its
// own — no KindBatch ever leaves a NewTOP GC, since it runs the bare
// machine, which only consumes batches. The count is taken on the wire,
// where the requests' data messages must be seen too.
func TestNewTOPNeverSeesBatch(t *testing.T) {
	counter := &methodCounter{methods: make(map[string]int)}
	c := newClusterOver(t, 3, group.Config{SuspectAfter: time.Minute}, func(tr transport.Transport) transport.Transport {
		counter.Transport = tr
		return counter
	})
	c.joinAll(t, "g")
	const per = 15
	for i := 0; i < per; i++ {
		for _, m := range c.members {
			if err := c.nsos[m].Multicast("g", group.TotalSym, []byte(fmt.Sprintf("%s#%d", m, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, m := range c.members {
		c.cols[m].waitN(t, per*len(c.members), 20*time.Second)
	}
	counter.mu.Lock()
	defer counter.mu.Unlock()
	if n := counter.methods[group.KindBatch]; n != 0 || counter.methods[group.KindData] == 0 {
		t.Fatalf("NewTOP sent %d KindBatch invocations; methods on the wire: %v", n, counter.methods)
	}
}

func TestNewTOPAllServicesDeliver(t *testing.T) {
	c := newCluster(t, 2, group.Config{SuspectAfter: time.Minute})
	c.joinAll(t, "g")
	services := []group.Service{group.Unreliable, group.Reliable, group.Causal, group.TotalSym, group.TotalAsym}
	for i, svc := range services {
		if err := c.nsos["m00"].Multicast("g", svc, []byte(fmt.Sprintf("svc%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := c.cols["m01"].waitN(t, len(services), 10*time.Second)
	seen := map[string]bool{}
	for _, p := range got {
		seen[p] = true
	}
	for i := range services {
		if !seen[fmt.Sprintf("svc%d", i)] {
			t.Fatalf("service %v message missing; delivered %v", services[i], got)
		}
	}
}

func TestNewTOPDeliveryMetadata(t *testing.T) {
	c := newCluster(t, 2, group.Config{SuspectAfter: time.Minute})
	c.joinAll(t, "g")
	if err := c.nsos["m00"].Multicast("g", group.Reliable, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.cols["m01"].waitN(t, 1, 10*time.Second)
	c.cols["m01"].mu.Lock()
	d := c.cols["m01"].msgs[0]
	c.cols["m01"].mu.Unlock()
	if d.Group != "g" || d.Origin != "m00" || d.Ordering != group.Reliable {
		t.Fatalf("delivery metadata = %+v", d)
	}
}

func TestNewTOPSuspectorReconfigures(t *testing.T) {
	c := newCluster(t, 3, group.Config{
		PingInterval: 10 * time.Millisecond,
		SuspectAfter: 80 * time.Millisecond,
	})
	c.joinAll(t, "g")
	time.Sleep(60 * time.Millisecond) // liveness warm-up
	// Silence m02 entirely.
	c.net.Partition(
		[]netsim.Addr{NodeAddr("m00"), NodeAddr("m01")},
		[]netsim.Addr{NodeAddr("m02")},
	)
	deadline := time.Now().Add(10 * time.Second)
	for {
		v0, v1 := c.cols["m00"].lastView(), c.cols["m01"].lastView()
		if reflect.DeepEqual(v0.Members, []string{"m00", "m01"}) &&
			reflect.DeepEqual(v1.Members, []string{"m00", "m01"}) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no reconfiguration: %+v %+v", v0, v1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The survivors keep ordering.
	if err := c.nsos["m00"].Multicast("g", group.TotalSym, []byte("after")); err != nil {
		t.Fatal(err)
	}
	got := c.cols["m01"].waitN(t, 1, 10*time.Second)
	if got[len(got)-1] != "after" {
		t.Fatalf("survivor did not deliver post-reconfiguration message: %v", got)
	}
}

func TestNewTOPFalseSuspicionSplitsGroup(t *testing.T) {
	c := newCluster(t, 3, group.Config{
		PingInterval: 10 * time.Millisecond,
		SuspectAfter: 80 * time.Millisecond,
	})
	c.joinAll(t, "g")
	time.Sleep(60 * time.Millisecond)
	// m00 and m01 lose contact with each other but both still reach m02:
	// nobody crashed, yet the group splits.
	c.net.Block(NodeAddr("m00"), NodeAddr("m01"))
	deadline := time.Now().Add(15 * time.Second)
	for {
		v0, v1 := c.cols["m00"].lastView(), c.cols["m01"].lastView()
		split := v0.ViewID > 1 && v1.ViewID > 1 &&
			!contains(v0.Members, "m01") && !contains(v1.Members, "m00")
		if split {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("group did not split: m00=%+v m01=%+v", v0, v1)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

func TestNewTOPConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nameless NSO accepted")
	}
}

func TestRefHelpers(t *testing.T) {
	if GCRef("x") != "x/gc" || InvRef("x") != "x/inv" || NodeAddr("x") != "node:x" {
		t.Fatal("ref helpers changed")
	}
	if callerMember(GCRef("abc")) != "abc" {
		t.Fatal("a GC reference does not name its member")
	}
}
