package fsnewtop

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"fsnewtop/internal/clock"
	failsignal "fsnewtop/internal/core"
	"fsnewtop/internal/group"
	"fsnewtop/internal/newtop"
	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
	"fsnewtop/internal/trace"
	"fsnewtop/transport"
	"fsnewtop/transport/netsim"
)

// collector drains a member's channels.
type collector struct {
	mu    sync.Mutex
	msgs  []newtop.Delivery
	views []newtop.View
	fails []string
	done  chan struct{}
}

func collect(n *NSO) *collector {
	c := &collector{done: make(chan struct{})}
	go func() {
		for {
			select {
			case d := <-n.Deliveries():
				c.mu.Lock()
				c.msgs = append(c.msgs, d)
				c.mu.Unlock()
			case v := <-n.Views():
				c.mu.Lock()
				c.views = append(c.views, v)
				c.mu.Unlock()
			case f := <-n.FailSignals():
				c.mu.Lock()
				c.fails = append(c.fails, f)
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

// has reports whether payload has been delivered.
func (c *collector) has(payload string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.msgs {
		if string(d.Payload) == payload {
			return true
		}
	}
	return false
}

func (c *collector) lastView() newtop.View {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.views) == 0 {
		return newtop.View{}
	}
	return c.views[len(c.views)-1]
}

func (c *collector) failCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.fails)
}

type cluster struct {
	fab     *Fabric
	members []string
	nsos    map[string]*NSO
	cols    map[string]*collector
}

func newCluster(t *testing.T, n int, tweak func(name string, cfg *Config), opts ...netsim.Option) *cluster {
	t.Helper()
	opts = append([]netsim.Option{netsim.WithDefaultProfile(netsim.Profile{Latency: netsim.Fixed(100 * time.Microsecond)})}, opts...)
	net := netsim.New(clock.NewReal(), opts...)
	t.Cleanup(net.Close)
	return newClusterOn(t, net, n, tweak)
}

// newClusterOn builds n members named m00, m01, ... on net.
func newClusterOn(t *testing.T, net transport.Transport, n int, tweak func(name string, cfg *Config)) *cluster {
	t.Helper()
	fab := NewFabric(net, clock.NewReal())
	fab.Trace = trace.NewRegistry(0, nil)
	c := &cluster{fab: fab, nsos: make(map[string]*NSO), cols: make(map[string]*collector)}
	for i := 0; i < n; i++ {
		c.members = append(c.members, fmt.Sprintf("m%02d", i))
	}
	for _, name := range c.members {
		peers := make([]string, 0, n-1)
		for _, p := range c.members {
			if p != name {
				peers = append(peers, p)
			}
		}
		cfg := Config{
			Name:   name,
			Fabric: fab,
			Peers:  peers,
			Delta:  150 * time.Millisecond,
		}
		if tweak != nil {
			tweak(name, &cfg)
		}
		nso, err := New(cfg)
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

// reissued counts the inputs of the given kind the members' invocation
// layers submitted to their pairs, from the trace's reissue events.
func (c *cluster) reissued(kind string) int {
	n := 0
	for _, ev := range c.fab.Trace.Snapshot() {
		if ev.Kind == trace.EvReissue && ev.Note == kind {
			n++
		}
	}
	return n
}

func (c *cluster) joinAll(t *testing.T, groupName string) {
	t.Helper()
	for _, m := range c.members {
		if err := c.nsos[m].Join(groupName, c.members); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFSNewTOPSymmetricTotalOrder(t *testing.T) {
	c := newCluster(t, 3, nil)
	c.joinAll(t, "g")
	const per = 10
	for i := 0; i < per; i++ {
		for _, m := range c.members {
			if err := c.nsos[m].Multicast("g", group.TotalSym, []byte(fmt.Sprintf("%s#%d", m, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := per * len(c.members)
	ref := c.cols[c.members[0]].waitN(t, total, 30*time.Second)
	for _, m := range c.members[1:] {
		got := c.cols[m].waitN(t, total, 30*time.Second)
		if !reflect.DeepEqual(got[:total], ref[:total]) {
			t.Fatalf("total order differs between %s and %s:\n%v\n%v", c.members[0], m, ref[:total], got[:total])
		}
	}
	// Healthy run: no pair fail-signalled.
	for _, m := range c.members {
		if c.nsos[m].Pair().Failed() {
			t.Fatalf("pair %s fail-signalled in a healthy run", m)
		}
	}
}

// TestFSNewTOPVerifyBudget prices a fault-free run in signature checks.
// Core's admission gate drops every copy of an input a node already holds
// before it is verified. Each
// double-signed output reaches a destination pair six times — four fs.new
// (two senders × two addresses), the follower's relay, the leader's forward
// — and costs two checks at the leader plus two at the follower, or four
// there when the leader forwards the other sender's copy: 4 to 6, where
// verifying every copy would cost 12. One dispatcher shard serialises the handlers,
// so no two copies of one input are ever in verification at once and the
// bound is exact. Ticks carry no signature and are counted apart
// (ReplicaStats.Ticks): everything else a pair orders is a client input or
// another pair's output. The halves' tick counts may differ by the one
// still in flight to the follower.
func TestFSNewTOPVerifyBudget(t *testing.T) {
	c := newCluster(t, 3, nil, netsim.WithShards(1))
	c.joinAll(t, "g")
	const per = 5
	for i := 0; i < per; i++ {
		for _, m := range c.members {
			if err := c.nsos[m].Multicast("g", group.TotalSym, []byte(fmt.Sprintf("%s#%d", m, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	deliveries := per * len(c.members)
	for _, m := range c.members {
		c.cols[m].waitN(t, deliveries, 30*time.Second)
	}
	// Let the acknowledgement traffic behind the last delivery drain.
	var checks uint64
	for settled := 0; settled < 20; {
		time.Sleep(5 * time.Millisecond)
		now := c.fab.SigChecks()
		if now == checks {
			settled++
		} else {
			checks, settled = now, 0
		}
	}
	if checks == 0 {
		t.Fatal("no signature checks counted")
	}
	const clientInputs = 1 + per // this member's join and multicasts
	for _, m := range c.members {
		n := c.nsos[m]
		ls, fs := n.pair.Leader.Stats(), n.pair.Follower.Stats()
		if ls.Rejected+fs.Rejected != 0 || ls.Ordered-ls.Ticks != fs.Ordered-fs.Ticks || ls.Outputs != fs.Outputs || ls.Ticks == 0 {
			t.Fatalf("%s: leader %+v follower %+v", m, ls, fs)
		}
		// n.verifiers: the invocation endpoint's, the leader's, the
		// follower's, in construction order. Either replica pays one check
		// per client input and one per candidate from its peer's Compare.
		pairChecks := n.verifiers[1].Checks() + n.verifiers[2].Checks()
		onOutputs := pairChecks - 2*clientInputs - ls.Outputs - fs.Outputs
		fsInputs := ls.Ordered - ls.Ticks - clientInputs
		if fsInputs == 0 || onOutputs < 4*fsInputs || onOutputs > 6*fsInputs {
			t.Fatalf("%s: %d checks on %d double-signed inputs, want 4 to 6 each", m, onOutputs, fsInputs)
		}
	}
	// 15 per delivery at three members; verifying every copy makes 25.
	if perDelivery := float64(checks) / float64(deliveries*len(c.members)); perDelivery > 20 {
		t.Fatalf("%.1f signature checks per delivery (%d checks)", perDelivery, checks)
	}
}

func TestFSNewTOPAllServices(t *testing.T) {
	c := newCluster(t, 2, nil)
	c.joinAll(t, "g")
	services := []group.Service{group.Unreliable, group.Reliable, group.Causal, group.TotalSym, group.TotalAsym}
	for i, svc := range services {
		if err := c.nsos["m00"].Multicast("g", svc, []byte(fmt.Sprintf("svc%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := c.cols["m01"].waitN(t, len(services), 20*time.Second)
	seen := map[string]bool{}
	for _, p := range got {
		seen[p] = true
	}
	for i := range services {
		if !seen[fmt.Sprintf("svc%d", i)] {
			t.Fatalf("service %v missing from %v", services[i], got)
		}
	}
}

// TestFSNewTOPByzantineGCDetectedAndRemoved is the end-to-end failure
// scenario: one member's GC replica node dies mid-run; its pair
// fail-signals (comparison timeout) instead of producing unchecked
// output; the other members convert the fail-signal into a sure suspicion
// and install a view without it; total ordering continues among the
// survivors. (Output *corruption* by a replica machine is exercised at the
// failsignal layer in internal/core's tests; here the fault enters at the
// node level.)
func TestFSNewTOPByzantineGCDetectedAndRemoved(t *testing.T) {
	c := newCluster(t, 3, nil)
	c.joinAll(t, "g")
	if err := c.nsos["m00"].Multicast("g", group.TotalSym, []byte("before")); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.members {
		c.cols[m].waitN(t, 1, 20*time.Second)
	}

	// m02's follower node dies silently; the leader's Compare times out on
	// the next output and the pair fail-signals.
	c.nsos["m02"].Pair().Follower.Crash()
	if err := c.nsos["m00"].Multicast("g", group.TotalSym, []byte("trigger")); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		v0, v1 := c.cols["m00"].lastView(), c.cols["m01"].lastView()
		if reflect.DeepEqual(v0.Members, []string{"m00", "m01"}) &&
			reflect.DeepEqual(v1.Members, []string{"m00", "m01"}) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors did not reconfigure: %+v %+v", v0, v1)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Ordering continues among survivors.
	if err := c.nsos["m01"].Multicast("g", group.TotalSym, []byte("after")); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(20 * time.Second)
	for {
		p0, p1 := c.cols["m00"].payloads(), c.cols["m01"].payloads()
		if len(p0) > 0 && len(p1) > 0 && p0[len(p0)-1] == "after" && p1[len(p1)-1] == "after" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors stalled: %v %v", p0, p1)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFSNewTOPArbitraryFailSignal covers failure mode fs2: a faulty node
// emits fail-signals at an arbitrary instant; the group treats the pair as
// faulty and reconfigures — correctly, because a signalling FS process is
// necessarily faulty.
func TestFSNewTOPArbitraryFailSignal(t *testing.T) {
	c := newCluster(t, 3, nil)
	c.joinAll(t, "g")
	c.nsos["m01"].Pair().Leader.InjectFailSignal()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v0, v2 := c.cols["m00"].lastView(), c.cols["m02"].lastView()
		if reflect.DeepEqual(v0.Members, []string{"m00", "m02"}) &&
			reflect.DeepEqual(v2.Members, []string{"m00", "m02"}) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no reconfiguration after fs2: %+v %+v", v0, v2)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The failed member's own invocation layer was told.
	deadline = time.Now().Add(10 * time.Second)
	for c.cols["m01"].failCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("m01's invocation layer never saw its pair's fail-signal")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFSNewTOPNoSplitUnderDelay is the responsiveness contrast to crash
// NewTOP: arbitrary message delay between members causes NO
// reconfiguration, because suspicion requires a verified fail-signal.
func TestFSNewTOPNoSplitUnderDelay(t *testing.T) {
	c := newCluster(t, 3, nil)
	c.joinAll(t, "g")
	// Make m00↔m01 inter-pair traffic crawl (200ms per message, both
	// directions, all four replica endpoints) for a while.
	addrs := func(m string) []netsim.Addr {
		return []netsim.Addr{
			netsim.Addr(m + "#L"), netsim.Addr(m + "#F"),
		}
	}
	for _, a := range addrs("m00") {
		for _, b := range addrs("m01") {
			transport.Shape(c.fab.Net, a, b, netsim.Profile{Latency: netsim.Fixed(200 * time.Millisecond)})
		}
	}
	time.Sleep(500 * time.Millisecond)
	for _, m := range c.members {
		if v := c.cols[m].lastView(); v.ViewID > 1 {
			t.Fatalf("%s reconfigured under mere delay: %+v", m, v)
		}
		if c.nsos[m].Pair().Failed() {
			t.Fatalf("%s pair fail-signalled under inter-pair delay", m)
		}
	}
}

// registered reports whether addr has a handler on net, without delivering
// anything to it: the probe's link is blocked, and netsim refuses an
// unknown destination before it looks at links.
func registered(t *testing.T, net *netsim.Network, addr transport.Addr) bool {
	t.Helper()
	const probe = transport.Addr("probe")
	net.Block(probe, addr)
	defer net.Unblock(probe, addr)
	err := net.Send(probe, addr, "probe", nil)
	if err != nil && !errors.Is(err, transport.ErrUnknownAddr) {
		t.Fatalf("probing %q: %v", addr, err)
	}
	return err == nil
}

// TestFSNewTOPInterceptorTransparency: the NSO's submit methods are the
// interception point, so an FS member occupies exactly its pair's two
// addresses and its invocation endpoint — no ORB node — and still
// delivers through the unchanged application API.
func TestFSNewTOPInterceptorTransparency(t *testing.T) {
	c := newCluster(t, 2, nil)
	net := c.fab.Net.(*netsim.Network)
	for _, m := range c.members {
		for _, a := range []transport.Addr{failsignal.LeaderAddr(m), failsignal.FollowerAddr(m), InvAddr(m)} {
			if !registered(t, net, a) {
				t.Fatalf("%s: %q not registered", m, a)
			}
		}
		if registered(t, net, newtop.NodeAddr(m)) {
			t.Fatalf("%s: an FS member registered an ORB node %q", m, newtop.NodeAddr(m))
		}
	}
	c.joinAll(t, "g")
	if err := c.nsos["m00"].Multicast("g", group.TotalSym, []byte("re-issued")); err != nil {
		t.Fatal(err)
	}
	got := c.cols["m01"].waitN(t, 1, 20*time.Second)
	if got[0] != "re-issued" {
		t.Fatalf("delivered %v", got)
	}
}

// TestCloseReleasesParkedDelivery: an application that stopped draining
// pins the transport goroutine handing it an output only until the member
// closes, and a closed member's invocation endpoint is gone from the
// network.
func TestCloseReleasesParkedDelivery(t *testing.T) {
	net := netsim.New(clock.NewReal())
	defer net.Close()
	n, err := New(Config{Name: "m00", Fabric: NewFabric(net, clock.NewReal()), Delta: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for len(n.deliveries) < cap(n.deliveries) {
		n.deliveries <- newtop.Delivery{}
	}
	out := sm.Output{Kind: group.KindDeliver, Payload: group.Deliver{Group: "g", Origin: "m01", Payload: []byte("x")}.Marshal()}
	handed := make(chan struct{})
	go func() { n.onOutput("m01", out); close(handed) }()
	n.Close()
	select {
	case <-handed:
	case <-time.After(3 * time.Second):
		t.Fatal("a delivery hand-off stayed parked after Close")
	}
	if registered(t, net, InvAddr("m00")) {
		t.Fatal("the invocation endpoint outlived Close")
	}
	n.Close() // idempotent
}

// TestDeliveryIsTheApplicationsOwn: the invocation layer makes the one copy
// out of the stack. An output arrives as a view of the transport message
// that carried it; the delivery built from it must share no byte with that
// message, so an application scribbling on its payload cannot reach the
// stack, nor the stack the application.
func TestDeliveryIsTheApplicationsOwn(t *testing.T) {
	net := netsim.New(clock.NewReal())
	defer net.Close()
	n, err := New(Config{Name: "m00", Fabric: NewFabric(net, clock.NewReal()), Delta: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	wire := group.Deliver{Group: "g", Origin: "m01", Service: group.Reliable, Payload: []byte("payload")}.Marshal()
	kept := bytes.Clone(wire)
	n.onOutput("m01", sm.Output{Kind: group.KindDeliver, Payload: wire})
	d := <-n.Deliveries()
	if d.Group != "g" || d.Origin != "m01" || d.Ordering != group.Reliable || string(d.Payload) != "payload" {
		t.Fatalf("delivery = %+v", d)
	}
	p := d.Payload[:cap(d.Payload)]
	for i := range p {
		p[i] = 0xEE
	}
	if !bytes.Equal(wire, kept) {
		t.Fatal("a scribble on the delivered payload reached the message it arrived in")
	}
}

// wiretap records the input payloads one address submits to FS pairs.
type wiretap struct {
	transport.Transport
	from transport.Addr
	mu   sync.Mutex
	sent [][]byte
}

func (w *wiretap) Send(from, to transport.Addr, kind string, payload []byte) error {
	if from == w.from && kind == failsignal.MsgNew {
		w.mu.Lock()
		w.sent = append(w.sent, payload)
		w.mu.Unlock()
	}
	return w.Transport.Send(from, to, kind, payload)
}

// waitOrdered waits until both halves of member's pair have ordered the
// client input key ("c|<client>|<seq>").
func (c *cluster) waitOrdered(t *testing.T, member, key string) {
	t.Helper()
	halves := map[string]bool{string(failsignal.LeaderID(member)): true, string(failsignal.FollowerID(member)): true}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		n := 0
		for _, ev := range c.fab.Trace.Snapshot() {
			if ev.Kind == trace.EvOrder && ev.Note == key && halves[ev.Node] {
				n++
			}
		}
		if n >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s's pair never ordered %s", member, key)
		}
	}
}

// TestGCObeysOnlyItsOwnInvocationLayer: a member's GC takes join and
// multicast requests only from its own invocation layer. Another member's
// invocation identity can sign inputs every pair verifies, and anyone can
// replay a member's signed request into another pair; neither may make a
// GC multicast. Nothing forged is delivered, genuine multicasts sent
// afterwards are, and no pair fail-signals.
func TestGCObeysOnlyItsOwnInvocationLayer(t *testing.T) {
	tr := netsim.New(clock.NewReal(), netsim.WithDefaultProfile(netsim.Profile{Latency: netsim.Fixed(100 * time.Microsecond)}))
	defer tr.Close()
	tap := &wiretap{Transport: tr, from: InvAddr("m00")}
	c := newClusterOn(t, tap, 3, nil)
	c.joinAll(t, "g")
	if err := c.nsos["m00"].Multicast("g", group.TotalSym, []byte("genuine-m00")); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.members {
		c.cols[m].waitN(t, 1, 20*time.Second)
	}
	var seq uint64
	for _, ev := range c.fab.Trace.Snapshot() {
		if ev.Node == invName("m00") && ev.Kind == trace.EvReissue && ev.Note == group.KindMcast {
			seq = ev.A
		}
	}
	tap.mu.Lock()
	signed := tap.sent[len(tap.sent)-1] // the multicast's request, as m00's pair received it
	tap.mu.Unlock()

	// m01's invocation identity asks m00's pair to multicast.
	forged := group.McastReq{Group: "g", Service: group.TotalSym, Payload: []byte("forged-by-m01")}.Marshal()
	fseq, err := c.nsos["m01"].client.SendSeq("m00", group.KindMcast, forged, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A stranger replays m00's signed request into m01's pair.
	const mallory = transport.Addr("mallory")
	tr.Register(mallory, func(transport.Message) {})
	for _, a := range []transport.Addr{failsignal.LeaderAddr("m01"), failsignal.FollowerAddr("m01")} {
		if err := tr.Send(mallory, a, failsignal.MsgNew, signed); err != nil {
			t.Fatal(err)
		}
	}
	c.waitOrdered(t, "m00", fmt.Sprintf("c|%s|%d", invName("m01"), fseq))
	c.waitOrdered(t, "m01", fmt.Sprintf("c|%s|%d", invName("m00"), seq))

	// Each target's next genuine multicast is ordered after the forgery, so
	// once it is delivered everywhere a forged one would have been too.
	for _, m := range []string{"m00", "m01"} {
		if err := c.nsos[m].Multicast("g", group.TotalSym, []byte("after-"+m)); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range c.members {
		for deadline := time.Now().Add(20 * time.Second); !c.cols[m].has("after-m00") || !c.cols[m].has("after-m01"); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never delivered the genuine multicasts: %v", m, c.cols[m].payloads())
			}
		}
		c.cols[m].mu.Lock()
		for _, d := range c.cols[m].msgs {
			if string(d.Payload) == "forged-by-m01" || (string(d.Payload) == "genuine-m00" && d.Origin != "m00") {
				t.Errorf("%s delivered a forgery: %q from %s", m, d.Payload, d.Origin)
			}
		}
		c.cols[m].mu.Unlock()
		if c.nsos[m].Pair().Failed() || c.cols[m].failCount() != 0 {
			t.Errorf("%s: a forged request made a pair fail-signal", m)
		}
	}
}

func TestNodeArithmetic(t *testing.T) {
	for f := 0; f <= 4; f++ {
		if NodesRequired(f) != 4*f+2 {
			t.Fatalf("NodesRequired(%d) = %d", f, NodesRequired(f))
		}
		if BFTNodesRequired(f) != 3*f+1 {
			t.Fatalf("BFTNodesRequired(%d) = %d", f, BFTNodesRequired(f))
		}
		if ReplicasRequired(f) != 2*f+1 {
			t.Fatalf("ReplicasRequired(%d) = %d", f, ReplicasRequired(f))
		}
		// The paper's cost claim: f+1 more nodes than the BFT optimum.
		if NodesRequired(f)-BFTNodesRequired(f) != f+1 {
			t.Fatalf("cost delta wrong for f=%d", f)
		}
	}
}

func TestFSNewTOPConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nameless member accepted")
	}
	if _, err := New(Config{Name: "x"}); err == nil {
		t.Fatal("fabricless member accepted")
	}
	// δ has one default, cluster's: a member built without one is refused,
	// not given a private bound of its own.
	net := netsim.New(clock.NewReal())
	defer net.Close()
	for _, d := range []time.Duration{0, -time.Millisecond} {
		nso, err := New(Config{Name: "x", Fabric: NewFabric(net, clock.NewReal()), Delta: d})
		if err == nil {
			nso.Close()
			t.Fatalf("member with δ = %v accepted", d)
		}
	}
}

// TestFSNewTOPWithRSASignatures runs the stack under the paper's actual
// signing scheme (MD5 with RSA) end to end.
func TestFSNewTOPWithRSASignatures(t *testing.T) {
	if testing.Short() {
		t.Skip("RSA key generation is slow")
	}
	c := newCluster(t, 2, func(name string, cfg *Config) {
		cfg.Fabric.NewSigner = func(id sig.ID) (sig.Signer, error) {
			return sig.NewRSASigner(id, sig.RSAKeySize, nil)
		}
	})
	c.joinAll(t, "g")
	for i := 0; i < 3; i++ {
		if err := c.nsos["m00"].Multicast("g", group.TotalSym, []byte(fmt.Sprintf("rsa-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := c.cols["m01"].waitN(t, 3, 30*time.Second)
	if got[0] != "rsa-0" || got[2] != "rsa-2" {
		t.Fatalf("delivered %v", got)
	}
	for _, m := range c.members {
		if c.nsos[m].Pair().Failed() {
			t.Fatalf("pair %s fail-signalled under RSA", m)
		}
	}
}

// TestFSNewTOPMultipleGroups: one FS member participating in two groups,
// as NewTOP permits ("permits Ai to be a member of more than one group at
// the same time").
func TestFSNewTOPMultipleGroups(t *testing.T) {
	c := newCluster(t, 3, nil)
	g1 := []string{"m00", "m01"}
	g2 := []string{"m01", "m02"}
	for _, m := range g1 {
		if err := c.nsos[m].Join("g1", g1); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range g2 {
		if err := c.nsos[m].Join("g2", g2); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.nsos["m00"].Multicast("g1", group.TotalSym, []byte("in-g1")); err != nil {
		t.Fatal(err)
	}
	if err := c.nsos["m02"].Multicast("g2", group.TotalSym, []byte("in-g2")); err != nil {
		t.Fatal(err)
	}
	got := c.cols["m01"].waitN(t, 2, 20*time.Second)
	seen := map[string]bool{got[0]: true, got[1]: true}
	if !seen["in-g1"] || !seen["in-g2"] {
		t.Fatalf("dual-group member delivered %v", got)
	}
	// m00 must never see g2 traffic.
	time.Sleep(100 * time.Millisecond)
	for _, p := range c.cols["m00"].payloads() {
		if p == "in-g2" {
			t.Fatal("non-member delivered g2 traffic")
		}
	}
}
