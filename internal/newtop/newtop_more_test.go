package newtop

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/group"
	"fsnewtop/internal/orb"
	"fsnewtop/internal/trace"
	"fsnewtop/transport/netsim"
)

func TestNewTOPAsymmetricOrderAgreement(t *testing.T) {
	c := newCluster(t, 3, group.Config{SuspectAfter: time.Minute})
	c.joinAll(t, "g")
	const per = 8
	for i := 0; i < per; i++ {
		for _, m := range c.members {
			if err := c.nsos[m].Multicast("g", group.TotalAsym, []byte(fmt.Sprintf("%s@%d", m, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := per * len(c.members)
	ref := c.cols[c.members[0]].waitN(t, total, 20*time.Second)
	for _, m := range c.members[1:] {
		got := c.cols[m].waitN(t, total, 20*time.Second)
		if !reflect.DeepEqual(got[:total], ref[:total]) {
			t.Fatalf("asymmetric order differs between %s and %s", c.members[0], m)
		}
	}
}

func TestNewTOPCausalOrder(t *testing.T) {
	c := newCluster(t, 3, group.Config{SuspectAfter: time.Minute})
	c.joinAll(t, "g")
	// A chain of causally related messages: each member sends after
	// seeing the previous one. Delivery order must respect the chain at
	// every member.
	chain := []string{"first", "second", "third"}
	senders := []string{"m00", "m01", "m02"}
	for i, text := range chain {
		if i > 0 {
			// Wait until the sender has delivered the predecessor.
			c.cols[senders[i]].waitN(t, i, 10*time.Second)
		}
		if err := c.nsos[senders[i]].Multicast("g", group.Causal, []byte(text)); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range c.members {
		got := c.cols[m].waitN(t, len(chain), 10*time.Second)
		if !reflect.DeepEqual(got[:len(chain)], chain) {
			t.Fatalf("%s broke the causal chain: %v", m, got)
		}
	}
}

func TestNewTOPMultipleGroups(t *testing.T) {
	c := newCluster(t, 3, group.Config{SuspectAfter: time.Minute})
	// m00 and m01 in group g1; m01 and m02 in group g2 (m01 is a member
	// of both, as NewTOP permits).
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
	if err := c.nsos["m00"].Multicast("g1", group.TotalSym, []byte("for-g1")); err != nil {
		t.Fatal(err)
	}
	if err := c.nsos["m02"].Multicast("g2", group.TotalSym, []byte("for-g2")); err != nil {
		t.Fatal(err)
	}
	got := c.cols["m01"].waitN(t, 2, 10*time.Second)
	seen := map[string]bool{}
	for _, p := range got {
		seen[p] = true
	}
	if !seen["for-g1"] || !seen["for-g2"] {
		t.Fatalf("dual-group member delivered %v", got)
	}
	// Non-members see nothing from the other group.
	time.Sleep(50 * time.Millisecond)
	for _, p := range c.cols["m00"].payloads() {
		if p == "for-g2" {
			t.Fatal("m00 delivered a g2 message without membership")
		}
	}
}

// TestGCServantPlainInvoke: the plain Servant path (Invoke, no caller
// identity) submits its input to the driver, which steps it — the input
// comes from the member's own invocation layer, so the machine obeys a
// join and a multicast made that way.
func TestGCServantPlainInvoke(t *testing.T) {
	c := newCluster(t, 1, group.Config{SuspectAfter: time.Minute})
	nso := c.nsos["m00"]
	s := gcServant{driver: nso.driver}
	if _, err := s.Invoke(group.KindJoin, orb.BytesAny(group.JoinReq{Group: "g", Members: []string{"m00"}}.Marshal())); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Invoke(group.KindMcast, orb.BytesAny(group.McastReq{Group: "g", Service: group.TotalSym, Payload: []byte("solo")}.Marshal())); err != nil {
		t.Fatal(err)
	}
	if got := c.cols["m00"].waitN(t, 1, 10*time.Second); got[0] != "solo" {
		t.Fatalf("delivered %v", got)
	}
	if nso.Name() != "m00" {
		t.Fatalf("Name = %q", nso.Name())
	}
}

func TestCallerMemberAttribution(t *testing.T) {
	if got := callerMember(GCRef("m07")); got != "m07" {
		t.Fatalf("GC caller attributed as %q", got)
	}
	for _, ref := range []orb.ObjectRef{"attacker/other", "m07/inv", "", "gc"} {
		if got := callerMember(ref); got != "" {
			t.Fatalf("non-GC caller %q attributed as member %q", ref, got)
		}
	}
}

// TestCloseWithUndrainedDeliveries: an application that stopped draining
// does not hang Close. The delivery buffer is full, so once the machine
// has ordered one more multicast the driver's loop parks handing it over;
// Close releases it.
func TestCloseWithUndrainedDeliveries(t *testing.T) {
	net := netsim.New(clock.NewReal())
	defer net.Close()
	reg := trace.NewRegistry(0, nil)
	nso, err := New(Config{Name: "m00", Net: net, Naming: orb.NewNaming(), Trace: reg, GC: group.Config{SuspectAfter: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	for len(nso.deliveries) < cap(nso.deliveries) {
		nso.deliveries <- Delivery{}
	}
	if err := nso.Join("g", []string{"m00"}); err != nil {
		t.Fatal(err)
	}
	if err := nso.Multicast("g", group.TotalSym, []byte("undrained")); err != nil {
		t.Fatal(err)
	}
	// The round closes inside the step whose outputs the loop then hands
	// to the application.
	for ordered := false; !ordered; {
		for _, ev := range reg.Snapshot() {
			ordered = ordered || ev.Kind == trace.EvRoundClose
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { nso.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close blocked behind an application that stopped draining")
	}
}
