package group

import (
	"reflect"
	"testing"
	"time"

	failsignal "fsnewtop/internal/core"
	"fsnewtop/internal/sm"
)

// The two tests in this file pin the view-change flush to the timestamp
// gate. The historical member path force-delivered the flush at install,
// which broke the total order two ways: a message multicast concurrently
// with the view change (after its sender's flush contribution was taken)
// could tie the flush tail and be ordered differently by gated and
// force-delivering members, and a member with an intake gap for a live
// origin jumped its delivered watermark over a message it could still
// recover, losing it forever. Both scenarios were first caught by the
// chaos churn oracle (seed 1) and are reproduced here deterministically.

// TestFlushGatedAgainstConcurrentSend drives a combined exclusion+
// admission view change while the coordinator multicasts concurrently
// with its own proposal. The concurrent message ties the flush tail's
// timestamp and sorts before it (origin a < origin c), so any member
// that force-delivers the flush breaks the tie differently from the
// gated joiner. Every log must agree.
func TestFlushGatedAgainstConcurrentSend(t *testing.T) {
	c := newTCluster(t, SuspectFailSignal, "a", "b", "c", "d")
	c.joinAll("g")
	for _, n := range c.names {
		c.mcast(n, "g", TotalSym, "w-"+n)
	}

	// d crashes; c→a additionally loses one data message so the
	// coordinator's clock lags the flush tail.
	dropD, dropCA := true, false
	c.drop = func(from, to, kind string) bool {
		if dropD && (from == "d" || to == "d") {
			return true
		}
		return dropCA && from == "c" && to == "a" && kind == KindData
	}

	// stuck-b pends everywhere (d's observed clock is frozen); stuck-c
	// pends at b and c but never reaches a.
	c.mcast("b", "g", TotalSym, "stuck-b")
	dropCA = true
	c.mcast("c", "g", TotalSym, "stuck-c")
	dropCA = false

	// e seeks admission: the snapshot transfer completes, and the
	// admission proposal {a,b,c,d,e} stalls awaiting the dead d's ack.
	c.addMachine("e", SuspectFailSignal)
	c.joinExisting("e", "g", []string{"a", "b", "c"})

	// The verified fail-signal for d reaches the coordinator, which
	// proposes {a,b,c,e} — its flush contribution is taken now. Before
	// routing anything, the coordinator multicasts: the message's
	// timestamp ties stuck-c's (the coordinator never saw stuck-c), and
	// origin a < origin c puts it FIRST in the total order.
	c.submit("a", sm.Input{Kind: failsignal.InputFailSignal, From: "d"})
	c.submit("a", sm.Input{Kind: KindMcast, Payload: McastReq{Group: "g", Service: TotalSym, Payload: []byte("late-a")}.Marshal()})
	c.run()
	// NACK round: e recovers late-a (it was multicast to the old view).
	c.tick(300 * time.Millisecond)
	c.tick(300 * time.Millisecond)

	want := []string{"a", "b", "c", "e"}
	for _, n := range want {
		if v := c.lastView(n); !reflect.DeepEqual(v.Members, want) {
			t.Fatalf("%s view = %+v, want members %v", n, v, want)
		}
	}
	ref := c.payloads("a")
	tail := []string{"stuck-b", "late-a", "stuck-c"}
	if got := ref[len(ref)-3:]; !reflect.DeepEqual(got, tail) {
		t.Fatalf("a's tail = %v, want %v (timestamp tie must break by origin)", got, tail)
	}
	for _, n := range []string{"b", "c"} {
		if got := c.payloads(n); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s delivered %v, want %v", n, got, ref)
		}
	}
	if got := c.payloads("e"); !isSuffix(ref, got) || len(got) < 3 {
		t.Fatalf("joiner's log %v is not a continuation of %v", got, ref)
	}
}

// TestFlushGapRecoveryAfterViewChange loses one message from a live
// origin to a single member, then drives a view change whose flush
// contains that origin's NEXT message. The member must not jump its
// delivered watermark over the recoverable gap: the lost message arrives
// by NACK after the install and delivers in its correct position.
func TestFlushGapRecoveryAfterViewChange(t *testing.T) {
	c := newTCluster(t, SuspectFailSignal, "a", "b", "c", "d")
	c.joinAll("g")
	for _, n := range c.names {
		c.mcast(n, "g", TotalSym, "w-"+n)
	}

	dropD, dropCA := false, true
	c.drop = func(from, to, kind string) bool {
		if dropD && (from == "d" || to == "d") {
			return true
		}
		return dropCA && from == "c" && to == "a" && kind == KindData
	}

	// c1 reaches everyone but a; b1 advances a's clock so b, c and d
	// deliver both while a still lacks c1's data and stays blocked.
	c.mcast("c", "g", TotalSym, "c1")
	dropCA = false
	c.mcast("b", "g", TotalSym, "b1")
	if got := c.payloads("b"); got[len(got)-2] != "c1" || got[len(got)-1] != "b1" {
		t.Fatalf("b should have delivered c1 then b1, got %v", got)
	}
	if got := c.payloads("a"); len(got) != 4 {
		t.Fatalf("a must still be blocked behind the c1 gap, delivered %v", got)
	}

	// d crashes; c2 pends at b and c (it is in the coming flush) and
	// buffers at a behind the c1 gap.
	dropD = true
	c.mcast("c", "g", TotalSym, "c2")

	// Exclude d. The flush carries b1 and c2 — NOT c1, which b and c
	// already delivered. a must hold c2 behind the gap, recover c1 by
	// NACK, and deliver c1, b1, c2 in timestamp order like everyone else.
	c.submit("a", sm.Input{Kind: failsignal.InputFailSignal, From: "d"})
	c.run()
	c.tick(300 * time.Millisecond)
	c.tick(300 * time.Millisecond)

	want := []string{"a", "b", "c"}
	for _, n := range want {
		if v := c.lastView(n); !reflect.DeepEqual(v.Members, want) {
			t.Fatalf("%s view = %+v, want members %v", n, v, want)
		}
	}
	ref := c.payloads("b")
	if got := ref[len(ref)-3:]; !reflect.DeepEqual(got, []string{"c1", "b1", "c2"}) {
		t.Fatalf("b's tail = %v, want [c1 b1 c2]", got)
	}
	for _, n := range []string{"a", "c"} {
		if got := c.payloads(n); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s delivered %v, want %v (the c1 gap must be recovered, not skipped)", n, got, ref)
		}
	}
}

// runHolding is run, except that every message hold selects stays in
// flight: it is returned instead of delivered, for the test to route
// later.
func (c *tCluster) runHolding(hold func(routed) bool) []routed {
	var held []routed
	for len(c.queue) > 0 {
		msg := c.queue[0]
		c.queue = c.queue[1:]
		if c.drop != nil && c.drop(msg.from, msg.to, msg.kind) {
			continue
		}
		if hold(msg) {
			held = append(held, msg)
			continue
		}
		c.submit(msg.to, sm.Input{Kind: msg.kind, From: msg.from, Payload: msg.payload})
	}
	return held
}

// TestFlushOlderEpochAckCoversExclusions replays the interleaving of the
// churn lane's seed 1 (m0 partitioned from m2, m2 fail-signalling while
// the coordinator collects acks). An ack carries flushPending of the
// candidate it answered, which adds the retained tail only of origins
// that candidate excluded. Here c's last multicast reaches b and d but
// never a; d dies and the coordinator a proposes {a,b,c}; b acks that
// proposal (its flush has no c1: c was still a member, and b has already
// delivered c1); c fail-signals before acking, and a proposes {a,b}. If a
// counts b's older ack for the newer proposal, the install's flush lacks
// c1 and a delivers b1 without it while b delivered c1 first. The older
// ack must not count: b re-acks the newer proposal with c's retained
// tail, and every log agrees.
func TestFlushOlderEpochAckCoversExclusions(t *testing.T) {
	c := newTCluster(t, SuspectFailSignal, "a", "b", "c", "d")
	c.joinAll("g")
	for _, n := range c.names {
		c.mcast(n, "g", TotalSym, "w-"+n)
	}

	// a never hears c's data (nor its retransmissions); d and later c die.
	deadD, deadC := false, false
	c.drop = func(from, to, kind string) bool {
		if deadD && (from == "d" || to == "d") || deadC && (from == "c" || to == "c") {
			return true
		}
		return from == "c" && to == "a" && kind == KindData
	}
	c.mcast("c", "g", TotalSym, "c1")
	c.mcast("b", "g", TotalSym, "b1")
	if got := c.payloads("b"); got[len(got)-2] != "c1" || got[len(got)-1] != "b1" {
		t.Fatalf("b should have delivered c1 then b1, got %v", got)
	}
	if got := c.payloads("a"); len(got) != 4 {
		t.Fatalf("a must still be blocked behind the missing c1, delivered %v", got)
	}

	// d fail-signals; c is already dead and never acks the proposal
	// {a,b,c}. b's ack stays in flight until a has proposed {a,b}.
	deadD, deadC = true, true
	c.submit("a", sm.Input{Kind: failsignal.InputFailSignal, From: "d"})
	held := c.runHolding(func(m routed) bool { return m.from == "b" && m.to == "a" && m.kind == KindViewAck })
	if len(held) != 1 {
		t.Fatalf("held %d acks from b, want its ack of the first proposal", len(held))
	}
	c.submit("a", sm.Input{Kind: failsignal.InputFailSignal, From: "c"})
	c.queue = append(held, c.queue...)
	c.run()
	c.tick(300 * time.Millisecond)
	c.tick(300 * time.Millisecond)

	want := []string{"a", "b"}
	for _, n := range want {
		if v := c.lastView(n); !reflect.DeepEqual(v.Members, want) {
			t.Fatalf("%s view = %+v, want members %v", n, v, want)
		}
	}
	ref := c.payloads("b")
	if got := ref[len(ref)-2:]; !reflect.DeepEqual(got, []string{"c1", "b1"}) {
		t.Fatalf("b's tail = %v, want [c1 b1]", got)
	}
	if got := c.payloads("a"); !reflect.DeepEqual(got, ref) {
		t.Fatalf("a delivered %v, want %v (the flush must carry c's retained c1)", got, ref)
	}
}

// TestJoinerClockFloor pins the admission freeze and the install's clock
// floor. While an admission proposal is pending, members must stop
// delivering: each acked the proposal with its clock, and the install
// broadcasts the maximum as the floor every member (the joiner above
// all) raises its clock over. Without the freeze, messages multicast
// during the admission round-trip are delivered under the old view's
// gate — which does not consult the joiner — and the joiner's first
// post-admission multicast can mint a timestamp at or below those
// deliveries, splitting the total order. Caught by the chaos churn
// oracle (seed 2 under -race); reproduced here deterministically.
func TestJoinerClockFloor(t *testing.T) {
	c := newTCluster(t, SuspectFailSignal, "a", "b", "c")
	c.joinAll("g")
	for _, n := range c.names {
		c.mcast(n, "g", TotalSym, "w-"+n)
	}

	// b's proposal ack is lost, so the admission install stalls with the
	// proposal standing.
	dropAck := false
	c.drop = func(from, to, kind string) bool {
		return dropAck && from == "b" && to == "a" && kind == KindViewAck
	}

	c.addMachine("e", SuspectFailSignal)
	dropAck = true
	c.joinExisting("e", "g", []string{"a", "b", "c"})

	// Multicast into the stalled admission window. The old view's gate
	// could deliver these (every old member acks), but the freeze must
	// hold them: the joiner has only the snapshot's clock and would
	// order its own first message under them.
	c.mcast("b", "g", TotalSym, "mid-1")
	c.mcast("b", "g", TotalSym, "mid-2")
	for _, n := range []string{"a", "b", "c"} {
		if got := c.payloads(n); contains(got, "mid-1") || contains(got, "mid-2") {
			t.Fatalf("%s delivered %v during a pending admission (freeze broken)", n, got)
		}
	}

	// The retry re-sends the standing proposal; b's re-ack now carries
	// mid-1/mid-2 as pending and a clock above their timestamps, so the
	// install's flush delivers them everywhere and its floor lifts the
	// joiner's clock past them.
	dropAck = false
	c.tick(1 * time.Second)

	// The joiner speaks first in the new view: its timestamp must sort
	// after everything the old view delivered.
	c.mcast("e", "g", TotalSym, "post-e")

	want := []string{"a", "b", "c", "e"}
	for _, n := range want {
		if v := c.lastView(n); !reflect.DeepEqual(v.Members, want) {
			t.Fatalf("%s view = %+v, want members %v", n, v, want)
		}
	}
	ref := c.payloads("a")
	tail := []string{"mid-1", "mid-2", "post-e"}
	if got := ref[len(ref)-3:]; !reflect.DeepEqual(got, tail) {
		t.Fatalf("a's tail = %v, want %v (joiner timestamps must clear the floor)", got, tail)
	}
	for _, n := range []string{"b", "c"} {
		if got := c.payloads(n); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s delivered %v, want %v", n, got, ref)
		}
	}
	if got := c.payloads("e"); !isSuffix(ref, got) || len(got) < 3 {
		t.Fatalf("joiner's log %v is not a continuation of %v", got, ref)
	}
}
