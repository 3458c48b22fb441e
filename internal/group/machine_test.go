package group

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"fsnewtop/internal/codec"
	failsignal "fsnewtop/internal/core"
	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
)

// tCluster drives a set of GC machines synchronously and deterministically:
// outputs become queued messages, processed FIFO. No goroutines, no real
// time — ticks are injected explicitly.
type tCluster struct {
	t         testing.TB
	names     []string
	machines  map[string]*Machine
	queue     []routed
	delivered map[string][]Deliver
	views     map[string][]ViewNote
	inputsOf  map[string][]sm.Input // recorded input scripts (determinism replay)
	emitted   map[string]int        // network outputs by kind
	// drop, when set, filters messages: return true to drop.
	drop func(from, to, kind string) bool
	now  time.Time
}

type routed struct {
	from, to, kind string
	payload        []byte
}

func newTCluster(t testing.TB, mode SuspectorMode, names ...string) *tCluster {
	t.Helper()
	c := &tCluster{
		t:         t,
		names:     names,
		machines:  make(map[string]*Machine),
		delivered: make(map[string][]Deliver),
		views:     make(map[string][]ViewNote),
		inputsOf:  make(map[string][]sm.Input),
		emitted:   make(map[string]int),
		now:       time.Date(2003, 6, 23, 0, 0, 0, 0, time.UTC),
	}
	for _, n := range names {
		c.machines[n] = New(Config{Self: n, Mode: mode})
		// Baseline tick so liveness tracking starts at a real instant
		// rather than the zero time.
		c.submit(n, sm.Tick(c.now))
	}
	return c
}

// submit steps one machine and routes its outputs.
func (c *tCluster) submit(self string, in sm.Input) {
	c.inputsOf[self] = append(c.inputsOf[self], in)
	outs := c.machines[self].Step(in)
	for _, out := range outs {
		c.emitted[out.Kind]++
		for _, to := range out.To {
			if to == sm.LocalDelivery {
				c.handleLocal(self, out.Kind, out.Payload)
				continue
			}
			c.queue = append(c.queue, routed{from: self, to: to, kind: out.Kind, payload: out.Payload})
		}
	}
}

// handleLocal records one local delivery.
func (c *tCluster) handleLocal(self, kind string, payload []byte) {
	switch kind {
	case KindDeliver:
		d, err := UnmarshalDeliver(payload)
		if err != nil {
			c.t.Fatalf("bad deliver payload: %v", err)
		}
		c.delivered[self] = append(c.delivered[self], d)
	case KindView:
		v, err := UnmarshalViewNote(payload)
		if err != nil {
			c.t.Fatalf("bad view payload: %v", err)
		}
		c.views[self] = append(c.views[self], v)
	default:
		c.t.Fatalf("unexpected local output kind %q", kind)
	}
}

// run processes queued messages until quiescence.
func (c *tCluster) run() {
	for len(c.queue) > 0 {
		msg := c.queue[0]
		c.queue = c.queue[1:]
		if c.drop != nil && c.drop(msg.from, msg.to, msg.kind) {
			continue
		}
		if _, ok := c.machines[msg.to]; !ok {
			continue
		}
		c.submit(msg.to, sm.Input{Kind: msg.kind, From: msg.from, Payload: msg.payload})
	}
}

// tick advances simulated time and feeds every machine a tick.
func (c *tCluster) tick(d time.Duration) {
	c.now = c.now.Add(d)
	for _, n := range c.names {
		c.submit(n, sm.Tick(c.now))
	}
	c.run()
}

// joinAll forms one group containing every machine.
func (c *tCluster) joinAll(group string) {
	for _, n := range c.names {
		c.submit(n, sm.Input{Kind: KindJoin, Payload: JoinReq{Group: group, Members: c.names}.Marshal()})
	}
	c.run()
}

// mcast issues a multicast from one member and processes the fallout.
func (c *tCluster) mcast(from, group string, svc Service, payload string) {
	c.submit(from, sm.Input{Kind: KindMcast, Payload: McastReq{Group: group, Service: svc, Payload: []byte(payload)}.Marshal()})
	c.run()
}

// payloads extracts delivered payload strings for one member.
func (c *tCluster) payloads(member string) []string {
	var out []string
	for _, d := range c.delivered[member] {
		out = append(out, string(d.Payload))
	}
	return out
}

func (c *tCluster) lastView(member string) ViewNote {
	vs := c.views[member]
	if len(vs) == 0 {
		return ViewNote{}
	}
	return vs[len(vs)-1]
}

func TestJoinFormsIdenticalInitialView(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	c.joinAll("g")
	for _, n := range c.names {
		v := c.lastView(n)
		if v.ViewID != 1 || !reflect.DeepEqual(v.Members, []string{"a", "b", "c"}) {
			t.Fatalf("%s view = %+v", n, v)
		}
	}
}

func TestJoinValidation(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a")
	// Not a member of the list: ignored.
	c.submit("a", sm.Input{Kind: KindJoin, Payload: JoinReq{Group: "g", Members: []string{"x", "y"}}.Marshal()})
	if len(c.machines["a"].Groups()) != 0 {
		t.Fatal("joined a group not containing self")
	}
	// Empty group name: ignored.
	c.submit("a", sm.Input{Kind: KindJoin, Payload: JoinReq{Group: "", Members: []string{"a"}}.Marshal()})
	if len(c.machines["a"].Groups()) != 0 {
		t.Fatal("joined the empty-name group")
	}
}

func TestUnreliableMulticastDeliversEverywhere(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	c.joinAll("g")
	c.mcast("a", "g", Unreliable, "u1")
	for _, n := range c.names {
		if got := c.payloads(n); !reflect.DeepEqual(got, []string{"u1"}) {
			t.Fatalf("%s delivered %v", n, got)
		}
	}
}

func TestReliableMulticastOrderPerSender(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b")
	c.joinAll("g")
	for i := 0; i < 5; i++ {
		c.mcast("a", "g", Reliable, fmt.Sprintf("r%d", i))
	}
	want := []string{"r0", "r1", "r2", "r3", "r4"}
	for _, n := range c.names {
		if got := c.payloads(n); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s delivered %v", n, got)
		}
	}
}

func TestReliableMulticastRecoversFromLoss(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b")
	c.joinAll("g")
	// Drop the first data transmission a→b, then heal.
	dropped := false
	c.drop = func(from, to, kind string) bool {
		if kind == KindData && from == "a" && to == "b" && !dropped {
			dropped = true
			return true
		}
		return false
	}
	c.mcast("a", "g", Reliable, "m1")
	c.mcast("a", "g", Reliable, "m2")
	if got := c.payloads("b"); len(got) != 0 {
		t.Fatalf("b delivered %v before gap repair", got)
	}
	// Ticks pace the NACK; the retransmission fills the gap.
	c.tick(300 * time.Millisecond)
	c.tick(300 * time.Millisecond)
	if got := c.payloads("b"); !reflect.DeepEqual(got, []string{"m1", "m2"}) {
		t.Fatalf("b delivered %v after repair", got)
	}
}

func TestCausalOrderHoldsBackEarlyMessage(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	c.joinAll("g")

	// a multicasts m1. Capture outputs manually so we can reorder.
	outs := c.machines["a"].Step(sm.Input{Kind: KindMcast, Payload: McastReq{Group: "g", Service: Causal, Payload: []byte("m1")}.Marshal()})
	var m1 []byte
	for _, o := range outs {
		if o.Kind == KindData {
			m1 = o.Payload
		}
	}
	// b receives m1, then multicasts m2 (causally after m1).
	c.submit("b", sm.Input{Kind: KindData, From: "a", Payload: m1})
	outsB := c.machines["b"].Step(sm.Input{Kind: KindMcast, Payload: McastReq{Group: "g", Service: Causal, Payload: []byte("m2")}.Marshal()})
	var m2 []byte
	for _, o := range outsB {
		if o.Kind == KindData {
			m2 = o.Payload
		}
	}
	// c receives m2 BEFORE m1: delivery must wait for m1.
	c.submit("c", sm.Input{Kind: KindData, From: "b", Payload: m2})
	if got := c.payloads("c"); len(got) != 0 {
		t.Fatalf("c delivered %v before the causal predecessor", got)
	}
	c.submit("c", sm.Input{Kind: KindData, From: "a", Payload: m1})
	if got := c.payloads("c"); !reflect.DeepEqual(got, []string{"m1", "m2"}) {
		t.Fatalf("c delivered %v, want [m1 m2]", got)
	}
}

func TestSymmetricTotalOrderAgreement(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c", "d")
	c.joinAll("g")
	// Interleaved multicasts from everyone.
	for round := 0; round < 5; round++ {
		for _, n := range c.names {
			c.mcast(n, "g", TotalSym, fmt.Sprintf("%s-%d", n, round))
		}
	}
	ref := c.payloads("a")
	if len(ref) != 20 {
		t.Fatalf("a delivered %d messages, want 20", len(ref))
	}
	for _, n := range c.names[1:] {
		if got := c.payloads(n); !reflect.DeepEqual(got, ref) {
			t.Fatalf("total order differs:\n%s: %v\n%s: %v", "a", ref, n, got)
		}
	}
}

func TestSymmetricConcurrentSendsStillAgree(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	c.joinAll("g")
	// Submit all three sends before routing anything: true concurrency.
	for _, n := range c.names {
		c.submit(n, sm.Input{Kind: KindMcast, Payload: McastReq{Group: "g", Service: TotalSym, Payload: []byte("from-" + n)}.Marshal()})
	}
	c.run()
	ref := c.payloads("a")
	if len(ref) != 3 {
		t.Fatalf("a delivered %v", ref)
	}
	for _, n := range c.names[1:] {
		if got := c.payloads(n); !reflect.DeepEqual(got, ref) {
			t.Fatalf("order differs between a (%v) and %s (%v)", ref, n, got)
		}
	}
}

func TestSymmetricSingletonGroupDeliversImmediately(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a")
	c.submit("a", sm.Input{Kind: KindJoin, Payload: JoinReq{Group: "g", Members: []string{"a"}}.Marshal()})
	c.mcast("a", "g", TotalSym, "solo")
	if got := c.payloads("a"); !reflect.DeepEqual(got, []string{"solo"}) {
		t.Fatalf("delivered %v", got)
	}
}

// TestSymmetricRetransmissionCannotBeOvertaken reproduces the ack-gating
// scenario: a lost low-timestamp message must not be overtaken by a
// higher-timestamp message that is already deliverable by raw clock
// values.
func TestSymmetricRetransmissionCannotBeOvertaken(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	c.joinAll("g")
	// Drop a's first data to c only.
	droppedOnce := false
	c.drop = func(from, to, kind string) bool {
		if kind == KindData && from == "a" && to == "c" && !droppedOnce {
			droppedOnce = true
			return true
		}
		return false
	}
	c.mcast("a", "g", TotalSym, "m1") // lost on the way to c
	c.drop = nil
	c.mcast("b", "g", TotalSym, "mB") // higher timestamp, c receives it

	// c must not deliver mB yet: a's ack for mB is gated on a's send
	// watermark, which c has not covered (m1 missing).
	if got := c.payloads("c"); len(got) != 0 {
		t.Fatalf("c delivered %v before the gap repair", got)
	}
	// NACK-driven repair.
	c.tick(300 * time.Millisecond)
	c.tick(300 * time.Millisecond)
	want := []string{"m1", "mB"}
	if got := c.payloads("c"); !reflect.DeepEqual(got, want) {
		t.Fatalf("c delivered %v, want %v", got, want)
	}
	if got := c.payloads("a"); !reflect.DeepEqual(got, want) {
		t.Fatalf("a delivered %v, want %v", got, want)
	}
}

func TestAsymmetricTotalOrderAgreement(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	c.joinAll("g")
	for round := 0; round < 4; round++ {
		for _, n := range c.names {
			c.mcast(n, "g", TotalAsym, fmt.Sprintf("%s-%d", n, round))
		}
	}
	ref := c.payloads("a")
	if len(ref) != 12 {
		t.Fatalf("a delivered %d, want 12", len(ref))
	}
	for _, n := range c.names[1:] {
		if got := c.payloads(n); !reflect.DeepEqual(got, ref) {
			t.Fatalf("asym order differs between a and %s:\n%v\n%v", n, ref, got)
		}
	}
}

func TestPingSuspectorReconfiguresOnSilence(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	c.joinAll("g")
	// Warm up liveness tracking.
	c.tick(100 * time.Millisecond)
	// c goes silent: drop everything from and to c.
	c.drop = func(from, to, kind string) bool { return from == "c" || to == "c" }
	for i := 0; i < 8; i++ {
		c.now = c.now.Add(600 * time.Millisecond)
		for _, n := range []string{"a", "b"} {
			c.submit(n, sm.Tick(c.now))
		}
		c.run()
	}
	for _, n := range []string{"a", "b"} {
		v := c.lastView(n)
		if v.ViewID < 2 || !reflect.DeepEqual(v.Members, []string{"a", "b"}) {
			t.Fatalf("%s view = %+v, want {a,b}", n, v)
		}
	}
}

func TestViewChangeFlushPreservesPendingTotalOrder(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	c.joinAll("g")
	c.tick(100 * time.Millisecond)
	// c receives nothing from here on; a's multicast stays pending at a
	// and b (they never get c's ack), then c is removed and the flush
	// delivers it.
	c.drop = func(from, to, kind string) bool { return from == "c" || to == "c" }
	c.mcast("a", "g", TotalSym, "stuck")
	if got := c.payloads("a"); len(got) != 0 {
		t.Fatalf("a delivered %v without c's ack", got)
	}
	for i := 0; i < 8; i++ {
		c.now = c.now.Add(600 * time.Millisecond)
		for _, n := range []string{"a", "b"} {
			c.submit(n, sm.Tick(c.now))
		}
		c.run()
	}
	for _, n := range []string{"a", "b"} {
		if got := c.payloads(n); !reflect.DeepEqual(got, []string{"stuck"}) {
			t.Fatalf("%s delivered %v after flush, want [stuck]", n, got)
		}
		if v := c.lastView(n); !reflect.DeepEqual(v.Members, []string{"a", "b"}) {
			t.Fatalf("%s view = %+v", n, v)
		}
	}
}

// TestFalseSuspicionSplitsGroup demonstrates the Section 1 behaviour of
// partitionable crash-tolerant systems: message loss between two correct
// members splits the group even though nobody crashed.
func TestFalseSuspicionSplitsGroup(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	c.joinAll("g")
	c.tick(100 * time.Millisecond)
	// a and b stop hearing each other; both stay connected to c.
	c.drop = func(from, to, kind string) bool {
		return (from == "a" && to == "b") || (from == "b" && to == "a")
	}
	for i := 0; i < 20; i++ {
		c.tick(600 * time.Millisecond)
	}
	va, vb, vc := c.lastView("a"), c.lastView("b"), c.lastView("c")
	if reflect.DeepEqual(va.Members, []string{"a", "b", "c"}) {
		t.Fatalf("no reconfiguration happened: a still at %+v", va)
	}
	// a ends in a view without b; b ends in a view without a: the group
	// split although both are alive.
	if contains(va.Members, "b") {
		t.Fatalf("a's view still contains b: %+v", va)
	}
	if contains(vb.Members, "a") {
		t.Fatalf("b's view still contains a: %+v", vb)
	}
	if len(vc.Members) >= 3 {
		t.Fatalf("c still in the full view: %+v", vc)
	}
}

// TestFailSignalModeNeverFalselySuspects: in SuspectFailSignal mode,
// arbitrary silence does NOT trigger reconfiguration — only a verified
// fail-signal does (Section 3.1: suspicions cannot be false).
func TestFailSignalModeNeverFalselySuspects(t *testing.T) {
	c := newTCluster(t, SuspectFailSignal, "a", "b", "c")
	c.joinAll("g")
	// Total silence from c for a long stretch of ticks.
	c.drop = func(from, to, kind string) bool { return from == "c" || to == "c" }
	for i := 0; i < 30; i++ {
		c.tick(time.Second)
	}
	for _, n := range []string{"a", "b"} {
		if v := c.lastView(n); v.ViewID != 1 {
			t.Fatalf("%s reconfigured without a fail-signal: %+v", n, v)
		}
	}
	// Now the fail-signal arrives: reconfiguration is immediate and sure.
	c.drop = func(from, to, kind string) bool { return from == "c" || to == "c" }
	for _, n := range []string{"a", "b"} {
		c.submit(n, sm.Input{Kind: failsignal.InputFailSignal, From: "c"})
	}
	c.run()
	for _, n := range []string{"a", "b"} {
		v := c.lastView(n)
		if v.ViewID != 2 || !reflect.DeepEqual(v.Members, []string{"a", "b"}) {
			t.Fatalf("%s view after fail-signal = %+v", n, v)
		}
	}
}

func TestAsymmetricResequencingAfterSequencerRemoval(t *testing.T) {
	c := newTCluster(t, SuspectFailSignal, "a", "b", "c")
	c.joinAll("g")
	// The sequencer is "a" (least member). Send one asym message from b
	// whose SEQ assignment never reaches c: c holds data but no
	// assignment.
	c.drop = func(from, to, kind string) bool { return kind == KindSeq && to == "c" }
	c.mcast("b", "g", TotalAsym, "mb")
	if got := c.payloads("c"); len(got) != 0 {
		t.Fatalf("c delivered %v without an assignment", got)
	}
	c.drop = nil
	// a fail-signals; b and c install {b, c}; the new sequencer b
	// re-sequences, and c finally delivers.
	for _, n := range []string{"b", "c"} {
		c.submit(n, sm.Input{Kind: failsignal.InputFailSignal, From: "a"})
	}
	c.run()
	if got := c.payloads("c"); !reflect.DeepEqual(got, []string{"mb"}) {
		t.Fatalf("c delivered %v after re-sequencing", got)
	}
	// No duplicate at b, which had already delivered under a's epoch.
	if got := c.payloads("b"); !reflect.DeepEqual(got, []string{"mb"}) {
		t.Fatalf("b delivered %v (duplicate after re-sequencing?)", got)
	}
}

func TestStaleAndInvalidMembershipMessagesIgnored(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	c.joinAll("g")
	m := c.machines["b"]
	// Proposal from a non-least proposer.
	outs := m.Step(sm.Input{Kind: KindViewProp, From: "c", Payload: ViewProp{Group: "g", ViewID: 2, Epoch: 1, Members: []string{"b", "c"}}.Marshal()})
	if len(outs) != 0 {
		t.Fatalf("accepted proposal from non-coordinator: %v", outs)
	}
	// Proposal with a wrong view id.
	outs = m.Step(sm.Input{Kind: KindViewProp, From: "a", Payload: ViewProp{Group: "g", ViewID: 9, Epoch: 1, Members: []string{"a", "b"}}.Marshal()})
	if len(outs) != 0 {
		t.Fatalf("accepted proposal with stale/future view id: %v", outs)
	}
	// Proposal that grows the membership.
	outs = m.Step(sm.Input{Kind: KindViewProp, From: "a", Payload: ViewProp{Group: "g", ViewID: 2, Epoch: 1, Members: []string{"a", "b", "z"}}.Marshal()})
	if len(outs) != 0 {
		t.Fatalf("accepted proposal adding members: %v", outs)
	}
	// Install from a non-coordinator.
	before, _ := m.View("g")
	m.Step(sm.Input{Kind: KindViewInstall, From: "c", Payload: ViewInstall{Group: "g", ViewID: 2, Epoch: 1, Members: []string{"b", "c"}}.Marshal()})
	if after, _ := m.View("g"); after != before {
		t.Fatal("installed a view from a non-coordinator")
	}
}

func TestDataValidationRejectsSpoofedOrigin(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	c.joinAll("g")
	d := DataMsg{Group: "g", Origin: "c", Service: Reliable, SenderSeq: 1, Payload: []byte("spoof")}
	c.submit("b", sm.Input{Kind: KindData, From: "a", Payload: d.Marshal()}) // from != origin
	if got := c.payloads("b"); len(got) != 0 {
		t.Fatalf("spoofed data delivered: %v", got)
	}
}

func TestMachineIsDeterministic(t *testing.T) {
	// Record a's full input script across a busy mixed-service run with a
	// membership change, then replay it through CheckDeterminism.
	c := newTCluster(t, SuspectFailSignal, "a", "b", "c")
	c.joinAll("g")
	for i := 0; i < 3; i++ {
		c.mcast("a", "g", TotalSym, fmt.Sprintf("s%d", i))
		c.mcast("b", "g", Causal, fmt.Sprintf("c%d", i))
		c.mcast("c", "g", TotalAsym, fmt.Sprintf("y%d", i))
		c.mcast("a", "g", Reliable, fmt.Sprintf("r%d", i))
		c.tick(100 * time.Millisecond)
	}
	for _, n := range []string{"a", "b"} {
		c.submit(n, sm.Input{Kind: failsignal.InputFailSignal, From: "c"})
	}
	c.run()
	c.tick(time.Second)

	script := c.inputsOf["a"]
	if len(script) < 20 {
		t.Fatalf("script too small (%d inputs) to be a meaningful determinism check", len(script))
	}
	factory := func() sm.Machine { return New(Config{Self: "a", Mode: SuspectFailSignal}) }
	if err := sm.CheckDeterminism(factory, script); err != nil {
		t.Fatalf("GC machine violates R1: %v", err)
	}
}

func TestServiceStringAndValidity(t *testing.T) {
	for svc, want := range map[Service]string{
		Unreliable: "unreliable",
		Reliable:   "reliable",
		Causal:     "causal",
		TotalSym:   "total-symmetric",
		TotalAsym:  "total-asymmetric",
	} {
		if svc.String() != want || !svc.valid() {
			t.Fatalf("service %d: %q valid=%v", svc, svc.String(), svc.valid())
		}
	}
	if Service(99).valid() || Service(0).valid() {
		t.Fatal("invalid service accepted")
	}
	if Service(99).String() == "" {
		t.Fatal("invalid service has empty string")
	}
}

func TestMcastValidation(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b")
	c.joinAll("g")
	// Unknown group.
	c.mcast("a", "nope", Reliable, "x")
	// Invalid service.
	c.submit("a", sm.Input{Kind: KindMcast, Payload: McastReq{Group: "g", Service: Service(77), Payload: []byte("x")}.Marshal()})
	c.run()
	if got := c.payloads("b"); len(got) != 0 {
		t.Fatalf("invalid multicasts delivered: %v", got)
	}
}

// TestEncodeHintsAreExact is this package's half of the fence internal/core
// holds over the FS data path: every encoder that carries a payload sizes
// its writer to the byte, so the payload is copied once and no buffer grows.
func TestEncodeHintsAreExact(t *testing.T) {
	for _, size := range []int{16, 8192} {
		v := bytes.Repeat([]byte("v"), size)
		data := DataMsg{Group: "g", Origin: "alice", Service: TotalSym, SenderSeq: 7, TS: 9,
			VC: []VCEntry{{Member: "alice", Count: 3}, {Member: "bob", Count: 4}}, Payload: v}
		for name, encode := range map[string]func() []byte{
			"Deliver":  Deliver{Group: "g", Origin: "alice", Service: TotalSym, Payload: v}.Marshal,
			"DataMsg":  data.Marshal,
			"McastReq": McastReq{Group: "g", Service: TotalSym, Payload: v}.Marshal,
		} {
			if b := encode(); cap(b) != len(b) {
				t.Errorf("%s at %d B: cap %d, len %d", name, size, cap(b), len(b))
			}
		}
		for name, enc := range map[string]func() ([]byte, *codec.Gather){
			"Deliver":      Deliver{Group: "g", Origin: "alice", Service: TotalSym, Payload: v}.marshalGather,
			"DataMsg":      data.marshalGather,
			"McastReq":     McastReq{Group: "g", Service: TotalSym, Payload: v}.MarshalGather,
			"MarshalBatch": func() ([]byte, *codec.Gather) { return MarshalBatch(mixedBatch(v)) },
		} {
			b, g := enc()
			if g != nil {
				b = g.Own()
			}
			if cap(b) != len(b) {
				t.Errorf("%s at %d B in gather form: cap %d, len %d", name, size, cap(b), len(b))
			}
		}
	}
}

// mixedBatch is a batch's worth of outputs: deliveries of payloads on both
// sides of the 32-byte rule, in gather form where they hold one, and v.
func mixedBatch(v []byte) []sm.Output {
	var outs []sm.Output
	for _, n := range []int{0, 16, 33, 8 << 10, len(v)} {
		b, g := Deliver{Group: "g", Origin: "bob", Service: TotalSym, Payload: bytes.Repeat([]byte("m"), n)}.marshalGather()
		outs = append(outs, sm.Output{Kind: KindDeliver, Payload: b, Gather: g})
	}
	return outs
}

// TestGatherEncodingsMatchContiguous: every group encoder that carries a
// payload by reference stands for the very bytes, regions and digest form
// of its contiguous encoding, at body sizes on both sides of the 32-byte
// rule and in a batch of mixed sizes.
func TestGatherEncodingsMatchContiguous(t *testing.T) {
	for _, size := range []int{0, 16, 33, 8 << 10} {
		v := bytes.Repeat([]byte{byte(size)}, size)
		data := DataMsg{Group: "g", Origin: "alice", Service: TotalSym, SenderSeq: 7, TS: 9,
			VC: []VCEntry{{Member: "alice", Count: 3}}, Payload: v}
		deliver := Deliver{Group: "g", Origin: "alice", Service: TotalSym, Payload: v}
		mcast := McastReq{Group: "g", Service: TotalSym, Payload: v}
		batch := mixedBatch(v)
		for name, c := range map[string]struct {
			encode func(*codec.Writer)
			gather func() ([]byte, *codec.Gather)
		}{
			"DataMsg":      {data.encode, data.marshalGather},
			"Deliver":      {deliver.encode, deliver.marshalGather},
			"McastReq":     {mcast.encode, mcast.MarshalGather},
			"MarshalBatch": {func(w *codec.Writer) { encodeBatch(w, batch) }, func() ([]byte, *codec.Gather) { return MarshalBatch(batch) }},
		} {
			w := codec.NewWriter(0)
			c.encode(w)
			want, wantRegions := w.Bytes(), w.Bodies()
			b, g := c.gather()
			if (g != nil) != (len(wantRegions) > 0) {
				t.Errorf("%s at %d B: gather form %v, %d regions", name, size, g != nil, len(wantRegions))
				continue
			}
			if g == nil {
				if !bytes.Equal(b, want) {
					t.Errorf("%s at %d B: the encoding differs from the contiguous one", name, size)
				}
				continue
			}
			if !bytes.Equal(g.Flat(), want) || len(g.Bodies()) != len(wantRegions) {
				t.Errorf("%s at %d B: the flattened gather form differs from the contiguous encoding", name, size)
				continue
			}
			if (*sig.BodyMemo)(nil).FormGather(g.Own(), g.Bodies()) != (*sig.BodyMemo)(nil).Form(want, wantRegions) {
				t.Errorf("%s at %d B: the digest form differs from the contiguous one", name, size)
			}
		}
	}
}
