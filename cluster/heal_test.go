package cluster_test

import (
	"fmt"
	"testing"
	"time"

	"fsnewtop/cluster"
	"fsnewtop/transport/tcpnet"
)

// awaitViewWith waits until m installs a view of the group with exactly
// want members, member must being among them. Deliveries are drained
// (and returned) so the protocol machine is never backpressured.
func awaitViewWith(t *testing.T, m *cluster.Member, want int, member string) {
	t.Helper()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case v := <-m.Views():
			if len(v.Members) != want {
				continue
			}
			for _, name := range v.Members {
				if name == member {
					return
				}
			}
		case <-m.Deliveries():
		case <-m.FailSignals():
		case <-deadline:
			t.Fatalf("%s: never installed a %d-member view containing %q", m.Name(), want, member)
		}
	}
}

// awaitPayload waits until m delivers a message with the given payload.
func awaitPayload(t *testing.T, m *cluster.Member, payload string) {
	t.Helper()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case d := <-m.Deliveries():
			if string(d.Payload) == payload {
				return
			}
		case <-m.Views():
		case <-m.FailSignals():
		case <-deadline:
			t.Fatalf("%s: never delivered %q", m.Name(), payload)
		}
	}
}

// runAddMember drives the dynamic-admission workload on a running
// cluster: traffic first, then a brand-new member joins the running
// group via state transfer, and full connectivity is proven both ways.
func runAddMember(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	if err := c.JoinAll("g"); err != nil {
		t.Fatal(err)
	}
	names := c.Names()
	for i := 0; i < 3; i++ {
		for _, name := range names {
			payload := []byte(fmt.Sprintf("pre-%s-%d", name, i))
			if err := c.Member(name).Multicast("g", cluster.TotalSym, payload); err != nil {
				t.Fatal(err)
			}
		}
	}

	d, err := c.AddMember("dave", "g")
	if err != nil {
		t.Fatal(err)
	}
	// Every member — newcomer included — must install the 4-member view.
	awaitViewWith(t, d, len(names)+1, "dave")
	awaitViewWith(t, c.Member(names[0]), len(names)+1, "dave")

	// Connectivity both ways through the admitted member.
	if err := d.Multicast("g", cluster.TotalSym, []byte("from-dave")); err != nil {
		t.Fatal(err)
	}
	awaitPayload(t, c.Member(names[0]), "from-dave")
	if err := c.Member(names[1]).Multicast("g", cluster.TotalSym, []byte("to-dave")); err != nil {
		t.Fatal(err)
	}
	awaitPayload(t, d, "to-dave")

	got := c.Names()
	if len(got) != len(names)+1 || got[len(got)-1] != "dave" {
		t.Fatalf("roster after AddMember = %v", got)
	}
}

// TestAddMemberNetsim admits a fresh fail-signal member into a running
// group over the simulated backend.
func TestAddMemberNetsim(t *testing.T) {
	c, err := cluster.New(
		cluster.WithMembers("alice", "bob", "carol"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runAddMember(t, c)
}

// TestAddMemberTCP runs the identical admission over real TCP sockets:
// the join protocol and pair spawning cannot depend on netsim behaviour.
func TestAddMemberTCP(t *testing.T) {
	tr, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c, err := cluster.New(
		cluster.WithTransport(tr),
		cluster.WithMembers("alice", "bob", "carol"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runAddMember(t, c)
}

// TestAutoHealReplacesFailedPair is the headline remediation path: a
// pair node crashes, the pair converts it into a verified fail-signal,
// and the auto-heal controller replaces the member with a fresh
// generation ("c~2") that is admitted into the running group via state
// transfer.
func TestAutoHealReplacesFailedPair(t *testing.T) {
	c, err := cluster.New(
		cluster.WithMembers("a", "b", "c"),
		cluster.WithAutoHeal(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.JoinAll("g"); err != nil {
		t.Fatal(err)
	}
	if c.HealEvents() == nil {
		t.Fatal("WithAutoHeal cluster must expose HealEvents")
	}
	if !c.CrashFollower("c") {
		t.Fatal("CrashFollower refused")
	}

	// Traffic forces output comparison inside c's pair, surfacing the
	// divergence as a fail-signal.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			_ = c.Member("a").Multicast("g", cluster.TotalSym, []byte("probe"))
		}
	}()

	var ev cluster.HealEvent
	select {
	case ev = <-c.HealEvents():
	case <-time.After(60 * time.Second):
		t.Fatal("auto-heal controller never remediated the failed pair")
	}
	if ev.Failed != "c" || ev.Err != nil {
		t.Fatalf("heal event = %+v", ev)
	}
	if ev.Replacement != "c~2" {
		t.Fatalf("replacement name = %q, want c~2", ev.Replacement)
	}
	if len(ev.Groups) != 1 || ev.Groups[0] != "g" {
		t.Fatalf("heal event groups = %v", ev.Groups)
	}

	r := c.Member("c~2")
	if r == nil {
		t.Fatal("replacement member not reachable through the facade")
	}
	// The replacement must be admitted: a full-strength view containing it
	// installs everywhere, and it can multicast into the group.
	awaitViewWith(t, r, 3, "c~2")
	awaitViewWith(t, c.Member("b"), 3, "c~2")
	if err := r.Multicast("g", cluster.TotalSym, []byte("from-heal")); err != nil {
		t.Fatal(err)
	}
	awaitPayload(t, c.Member("b"), "from-heal")
}

// TestAutoHealOffByDefault: without WithAutoHeal a failed member stays
// failed — no controller, no events, no replacement — exactly the
// paper's static deployments.
func TestAutoHealOffByDefault(t *testing.T) {
	c, err := cluster.New(
		cluster.WithMembers("a", "b", "c"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.HealEvents() != nil {
		t.Fatal("HealEvents must be nil without WithAutoHeal")
	}
	if err := c.JoinAll("g"); err != nil {
		t.Fatal(err)
	}
	if !c.CrashFollower("c") {
		t.Fatal("CrashFollower refused")
	}
	if err := c.Member("a").Multicast("g", cluster.TotalSym, []byte("probe")); err != nil {
		t.Fatal(err)
	}
	// Survivors reconfigure around the failure...
	awaitViewWith(t, c.Member("a"), 2, "b")
	// ...but nothing replaces it.
	time.Sleep(200 * time.Millisecond)
	if got := c.Names(); len(got) != 3 {
		t.Fatalf("roster changed without auto-heal: %v", got)
	}
	if c.Member("c~2") != nil {
		t.Fatal("a replacement appeared without auto-heal")
	}
}
