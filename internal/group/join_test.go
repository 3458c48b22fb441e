package group

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	failsignal "fsnewtop/internal/core"
	"fsnewtop/internal/sm"
)

// addMachine brings a fresh machine into the harness mid-run (it is not a
// member of anything until it joins).
func (c *tCluster) addMachine(name string, mode SuspectorMode) {
	c.machines[name] = New(Config{Self: name, Mode: mode})
	c.names = append(c.names, name)
	c.submit(name, sm.Tick(c.now))
}

// joinExisting submits a dynamic-join request at name and processes the
// fallout.
func (c *tCluster) joinExisting(name, group string, contacts []string) {
	c.submit(name, sm.Input{Kind: KindJoinExisting, Payload: JoinExistingReq{Group: group, Contacts: contacts}.Marshal()})
	c.run()
}

// isSuffix reports whether sub equals the tail of ref starting at sub's
// first element.
func isSuffix(ref, sub []string) bool {
	if len(sub) > len(ref) {
		return false
	}
	return reflect.DeepEqual(ref[len(ref)-len(sub):], sub)
}

func TestJoinExistingAdmitsFreshMember(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	c.joinAll("g")
	for i := 0; i < 4; i++ {
		c.mcast("a", "g", TotalSym, fmt.Sprintf("pre%d", i))
	}

	c.addMachine("d", SuspectPing)
	c.joinExisting("d", "g", []string{"a", "b", "c"})
	c.tick(100 * time.Millisecond)

	want := []string{"a", "b", "c", "d"}
	for _, n := range want {
		v := c.lastView(n)
		if !reflect.DeepEqual(v.Members, want) {
			t.Fatalf("%s view after join = %+v, want members %v", n, v, want)
		}
	}
	// The admitted member participates fully: traffic from and to it
	// reaches everyone in one total order.
	c.mcast("d", "g", TotalSym, "from-d")
	c.mcast("a", "g", TotalSym, "post")
	ref := c.payloads("a")
	if got := ref[len(ref)-2:]; !reflect.DeepEqual(got, []string{"from-d", "post"}) {
		t.Fatalf("a's tail = %v", got)
	}
	for _, n := range []string{"b", "c"} {
		if got := c.payloads(n); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s delivered %v, want %v", n, got, ref)
		}
	}
	// The joiner's log is a suffix continuation of the group's order: it
	// starts after the snapshot point and never replays the prefix.
	if got := c.payloads("d"); !isSuffix(ref, got) || len(got) < 2 {
		t.Fatalf("d's log %v is not a continuation of %v", got, ref)
	}
}

// TestJoinStateTransferUnderConcurrentDelivery interleaves the join
// protocol with live symmetric-order traffic: the joiner's log must be a
// prefix-consistent continuation (a suffix of the agreed order), whatever
// the interleaving delivered around the snapshot point.
func TestJoinStateTransferUnderConcurrentDelivery(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	c.joinAll("g")
	for i := 0; i < 3; i++ {
		c.mcast("b", "g", TotalSym, fmt.Sprintf("warm%d", i))
	}

	c.addMachine("d", SuspectPing)
	// Submit the admission and a burst of multicasts before routing
	// anything: the snapshot is taken while messages are in flight.
	c.submit("d", sm.Input{Kind: KindJoinExisting, Payload: JoinExistingReq{Group: "g", Contacts: []string{"a", "b", "c"}}.Marshal()})
	for i := 0; i < 3; i++ {
		for _, n := range []string{"a", "b", "c"} {
			c.submit(n, sm.Input{Kind: KindMcast, Payload: McastReq{Group: "g", Service: TotalSym, Payload: []byte(fmt.Sprintf("mid-%s-%d", n, i))}.Marshal()})
		}
	}
	c.run()
	c.tick(100 * time.Millisecond)
	c.tick(300 * time.Millisecond)

	// More traffic after the admission.
	c.mcast("a", "g", TotalSym, "post-a")
	c.mcast("d", "g", TotalSym, "post-d")
	c.tick(300 * time.Millisecond)

	ref := c.payloads("a")
	if len(ref) != 3+9+2 {
		t.Fatalf("a delivered %d messages: %v", len(ref), ref)
	}
	for _, n := range []string{"b", "c"} {
		if got := c.payloads(n); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s delivered %v, want %v", n, got, ref)
		}
	}
	got := c.payloads("d")
	if !isSuffix(ref, got) {
		t.Fatalf("joiner's log is not a suffix of the order:\nref: %v\nd:   %v", ref, got)
	}
	if len(got) < 2 || got[len(got)-1] != "post-d" {
		t.Fatalf("joiner missed post-admission traffic: %v", got)
	}
	v := c.lastView("d")
	if !reflect.DeepEqual(v.Members, []string{"a", "b", "c", "d"}) {
		t.Fatalf("d's view = %+v", v)
	}
}

// TestJoinReplacesExcludedMember is the heal-plane shape at the machine
// level: a member fail-signals, the survivors exclude it, and a fresh
// replacement joins through the survivors.
func TestJoinReplacesExcludedMember(t *testing.T) {
	c := newTCluster(t, SuspectFailSignal, "a", "b", "c")
	c.joinAll("g")
	c.mcast("c", "g", TotalSym, "before-crash")

	// c dies: survivors get the verified fail-signal and exclude it.
	c.drop = func(from, to, kind string) bool { return from == "c" || to == "c" }
	for _, n := range []string{"a", "b"} {
		c.submit(n, sm.Input{Kind: failsignal.InputFailSignal, From: "c"})
	}
	c.run()
	for _, n := range []string{"a", "b"} {
		if v := c.lastView(n); !reflect.DeepEqual(v.Members, []string{"a", "b"}) {
			t.Fatalf("%s did not exclude c: %+v", n, v)
		}
	}

	// The replacement joins through the survivors.
	c.addMachine("r", SuspectFailSignal)
	c.joinExisting("r", "g", []string{"a", "b"})
	c.tick(100 * time.Millisecond)
	want := []string{"a", "b", "r"}
	for _, n := range want {
		if v := c.lastView(n); !reflect.DeepEqual(v.Members, want) {
			t.Fatalf("%s view = %+v, want %v", n, v, want)
		}
	}
	c.mcast("r", "g", TotalSym, "from-r")
	ref := c.payloads("a")
	if ref[len(ref)-1] != "from-r" {
		t.Fatalf("a's log %v missing the replacement's message", ref)
	}
	if got := c.payloads("r"); !isSuffix(ref, got) || len(got) == 0 {
		t.Fatalf("replacement's log %v is not a continuation of %v", got, ref)
	}
}

// TestRejoinSameNameAfterExclusion: an admitted joiner reusing a departed
// member's name must start from a clean slate — stale intake watermarks
// for the old incarnation would silently discard the new one's messages.
func TestRejoinSameNameAfterExclusion(t *testing.T) {
	c := newTCluster(t, SuspectFailSignal, "a", "b", "c")
	c.joinAll("g")
	c.mcast("c", "g", TotalSym, "old-c")
	c.mcast("c", "g", Causal, "old-c-causal")

	c.drop = func(from, to, kind string) bool { return from == "c" || to == "c" }
	for _, n := range []string{"a", "b"} {
		c.submit(n, sm.Input{Kind: failsignal.InputFailSignal, From: "c"})
	}
	c.run()
	c.drop = nil

	// A fresh incarnation of "c" (new machine, sequence numbers restarting
	// at 1) rejoins.
	c.machines["c"] = New(Config{Self: "c", Mode: SuspectFailSignal})
	c.submit("c", sm.Tick(c.now))
	c.joinExisting("c", "g", []string{"a", "b"})
	c.tick(100 * time.Millisecond)
	for _, n := range []string{"a", "b", "c"} {
		if v := c.lastView(n); !reflect.DeepEqual(v.Members, []string{"a", "b", "c"}) {
			t.Fatalf("%s view = %+v", n, v)
		}
	}
	// The new incarnation's first messages (seq 1 again) must deliver.
	c.mcast("c", "g", TotalSym, "new-c")
	c.mcast("c", "g", Causal, "new-c-causal")
	ref := c.payloads("a")
	if got := ref[len(ref)-2:]; !reflect.DeepEqual(got, []string{"new-c", "new-c-causal"}) {
		t.Fatalf("a's tail = %v, want the rejoined incarnation's messages", got)
	}
	if got := c.payloads("b"); !reflect.DeepEqual(got, ref) {
		t.Fatalf("b delivered %v, want %v", got, ref)
	}
}

// TestJoinerInertUntilAdmitted: with the admission stalled (state ack
// lost), the provisional joiner neither multicasts nor coordinates.
func TestJoinerInertUntilAdmitted(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b")
	c.joinAll("g")
	c.addMachine("d", SuspectPing)

	// The joiner's snapshot confirmation never arrives: it stays
	// provisional.
	c.drop = func(from, to, kind string) bool { return kind == KindStateAck }
	c.joinExisting("d", "g", []string{"a", "b"})
	for _, n := range []string{"a", "b"} {
		if v := c.lastView(n); len(v.Members) != 2 {
			t.Fatalf("%s admitted d without a state ack: %+v", n, v)
		}
	}
	// Provisional state exists, but multicasts are refused.
	c.mcast("d", "g", TotalSym, "too-early")
	for _, n := range []string{"a", "b", "d"} {
		if got := c.payloads(n); len(got) != 0 {
			t.Fatalf("%s delivered %v from a provisional joiner", n, got)
		}
	}
	// Heal the loss: the coordinator's snapshot retry completes the join.
	c.drop = nil
	c.tick(1200 * time.Millisecond)
	c.tick(1200 * time.Millisecond)
	if v := c.lastView("d"); !reflect.DeepEqual(v.Members, []string{"a", "b", "d"}) {
		t.Fatalf("d never admitted after heal: %+v", v)
	}
	c.mcast("d", "g", TotalSym, "now-ok")
	if got := c.payloads("a"); !reflect.DeepEqual(got, []string{"now-ok"}) {
		t.Fatalf("a delivered %v", got)
	}
}

// TestJoinSurvivesCoordinatorHandoff: the coordinator dies after sending
// the snapshot but before proposing; the next coordinator (which also
// heard the ask) takes the transfer over.
func TestJoinSurvivesCoordinatorHandoff(t *testing.T) {
	c := newTCluster(t, SuspectFailSignal, "a", "b", "c")
	c.joinAll("g")
	c.addMachine("d", SuspectFailSignal)

	// a (the coordinator) answers with a snapshot, but the join stalls
	// there: drop a's proposals so the admission cannot complete.
	c.drop = func(from, to, kind string) bool { return from == "a" && kind == KindViewProp }
	c.joinExisting("d", "g", []string{"a", "b", "c"})
	if v := c.lastView("d"); v.ViewID != 0 {
		t.Fatalf("d admitted despite dropped proposals: %+v", v)
	}
	// a dies; b and c exclude it. b becomes coordinator.
	c.drop = func(from, to, kind string) bool { return from == "a" || to == "a" }
	for _, n := range []string{"b", "c"} {
		c.submit(n, sm.Input{Kind: failsignal.InputFailSignal, From: "a"})
	}
	c.run()
	// d keeps asking; b re-snapshots at the new view and admits it.
	for i := 0; i < 4; i++ {
		c.tick(1200 * time.Millisecond)
	}
	want := []string{"b", "c", "d"}
	for _, n := range want {
		if v := c.lastView(n); !reflect.DeepEqual(v.Members, want) {
			t.Fatalf("%s view = %+v, want %v", n, v, want)
		}
	}
	c.mcast("d", "g", TotalSym, "handoff-ok")
	if got := c.payloads("b"); !reflect.DeepEqual(got, []string{"handoff-ok"}) {
		t.Fatalf("b delivered %v", got)
	}
}

// TestJoinThroughNonCoordinatorContacts: a joiner whose contacts leave out
// the coordinator (a was admitted, or became the least member, after the
// joiner chose them) is still admitted: a contact that is not the
// coordinator relays the ask, and the coordinator answers the joiner
// directly.
func TestJoinThroughNonCoordinatorContacts(t *testing.T) {
	for _, mode := range []SuspectorMode{SuspectPing, SuspectFailSignal} {
		c := newTCluster(t, mode, "a", "b", "c")
		c.joinAll("g")
		c.mcast("a", "g", TotalSym, "pre")
		c.addMachine("d", mode)
		c.joinExisting("d", "g", []string{"b", "c"})
		for i := 0; i < 4; i++ {
			c.tick(100 * time.Millisecond)
		}
		want := []string{"a", "b", "c", "d"}
		for _, n := range want {
			if v := c.lastView(n); !reflect.DeepEqual(v.Members, want) {
				t.Fatalf("mode %v: %s view = %+v, want %v", mode, n, v, want)
			}
		}
		c.mcast("d", "g", TotalSym, "from-d")
		for _, n := range want {
			if got := c.payloads(n); len(got) == 0 || got[len(got)-1] != "from-d" {
				t.Fatalf("mode %v: %s delivered %v, want the joiner's multicast last", mode, n, got)
			}
		}
	}
}

// TestJoinProtocolDeterministic replays both the joiner's and the
// coordinator's recorded input scripts: the join path runs inside
// byte-compared pair halves and must satisfy R1 like everything else.
func TestJoinProtocolDeterministic(t *testing.T) {
	c := newTCluster(t, SuspectFailSignal, "a", "b", "c")
	c.joinAll("g")
	for i := 0; i < 2; i++ {
		c.mcast("a", "g", TotalSym, fmt.Sprintf("s%d", i))
		c.mcast("b", "g", Causal, fmt.Sprintf("k%d", i))
		c.mcast("c", "g", TotalAsym, fmt.Sprintf("y%d", i))
	}
	c.addMachine("d", SuspectFailSignal)
	c.submit("d", sm.Input{Kind: KindJoinExisting, Payload: JoinExistingReq{Group: "g", Contacts: []string{"a", "b", "c"}}.Marshal()})
	for _, n := range []string{"a", "b", "c"} {
		c.submit(n, sm.Input{Kind: KindMcast, Payload: McastReq{Group: "g", Service: TotalSym, Payload: []byte("mid-" + n)}.Marshal()})
	}
	c.run()
	c.tick(100 * time.Millisecond)
	c.mcast("d", "g", TotalSym, "post-d")
	c.tick(1200 * time.Millisecond)

	for _, name := range []string{"a", "d"} {
		script := c.inputsOf[name]
		if len(script) < 10 {
			t.Fatalf("%s's script too small (%d inputs)", name, len(script))
		}
		factory := func() sm.Machine { return New(Config{Self: name, Mode: SuspectFailSignal}) }
		if err := sm.CheckDeterminism(factory, script); err != nil {
			t.Fatalf("join path violates R1 at %s: %v", name, err)
		}
	}
}

// TestFailSignalBeforeJoinIsRemembered: the pair below a machine hands it
// each process's fail-signal exactly once. When that happens before the
// group exists here — the application's join is still queued behind it —
// the suspicion must wait for the group, not vanish.
func TestFailSignalBeforeJoinIsRemembered(t *testing.T) {
	c := newTCluster(t, SuspectFailSignal, "a", "b", "c")
	c.drop = func(from, to, kind string) bool { return from == "c" || to == "c" }
	for _, n := range []string{"a", "b"} {
		c.submit(n, sm.Input{Kind: failsignal.InputFailSignal, From: "c"})
	}
	c.joinAll("g")
	for _, n := range []string{"a", "b"} {
		v := c.lastView(n)
		if v.ViewID != 2 || !reflect.DeepEqual(v.Members, []string{"a", "b"}) {
			t.Fatalf("%s view after joining with c already signalled = %+v", n, v)
		}
	}
}

// TestFailSignalBeforeSnapshotIsRemembered: a joiner that learnt of a
// member's fail-signal before its snapshot arrived reports the suspicion
// with its admission ack, so a coordinator that missed the signal still
// excludes the dead member.
func TestFailSignalBeforeSnapshotIsRemembered(t *testing.T) {
	c := newTCluster(t, SuspectFailSignal, "a", "b", "c")
	c.joinAll("g")
	c.addMachine("d", SuspectFailSignal)
	// c dies; only the joiner-to-be hears its fail-signal.
	c.drop = func(from, to, kind string) bool { return from == "c" || to == "c" }
	c.submit("d", sm.Input{Kind: failsignal.InputFailSignal, From: "c"})
	c.joinExisting("d", "g", []string{"a", "b"})
	for i := 0; i < 4; i++ {
		c.tick(1200 * time.Millisecond)
	}
	want := []string{"a", "b", "d"}
	for _, n := range want {
		if v := c.lastView(n); !reflect.DeepEqual(v.Members, want) {
			t.Fatalf("%s view = %+v, want %v", n, v, want)
		}
	}
}
