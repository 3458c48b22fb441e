package cluster_test

import (
	"testing"
	"time"

	"fsnewtop/cluster"
	"fsnewtop/internal/clock"
	"fsnewtop/transport/tcpnet"
)

// TestClusterVirtualTime runs the canonical total-order workload with the
// whole stack — pairs, GC machines, ORBs, netsim — on an auto-advancing
// virtual clock: identical behaviour, near-zero wall time regardless of δ.
func TestClusterVirtualTime(t *testing.T) {
	v := clock.NewVirtual()
	defer v.Stop()
	start := time.Now()
	c, err := cluster.New(
		cluster.WithMembers("alice", "bob", "carol"),
		cluster.WithVirtualTime(v),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runTotalOrder(t, c)
	if v.Elapsed() <= 0 {
		t.Fatal("virtual clock never advanced")
	}
	t.Logf("virtual elapsed %v in %v wall (%d advances)", v.Elapsed(), time.Since(start), v.Advances())
}

// TestClusterVirtualTimeSkewedMemberStaysGreen injects a bounded clock
// skew — a step plus a steady drift on one member, well inside δ — and
// requires the workload to stay fail-silent: bounded skew is an
// environment condition, not a fault the pair may convert.
func TestClusterVirtualTimeSkewedMemberStaysGreen(t *testing.T) {
	v := clock.NewVirtual()
	defer v.Stop()
	c, err := cluster.New(
		cluster.WithMembers("alice", "bob", "carol"),
		cluster.WithVirtualTime(v),
		cluster.WithDelta(50*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sk := c.SkewMember("bob")
	if sk == nil {
		t.Fatal("SkewMember returned nil under WithVirtualTime")
	}
	sk.Step(2 * time.Millisecond)
	sk.SetDrift(500e-6) // 500 ppm fast
	runTotalOrder(t, c)
	for _, name := range c.Names() {
		if c.PairFailed(name) {
			t.Fatalf("bounded skew caused a fail-signal on %s", name)
		}
	}
}

// TestAutoHealRespawnVirtualClock pins the respawn path's clock wiring
// under WithVirtualTime: a replacement member spawned by the auto-heal
// controller must come up on its own fresh clock.Skewed view of the one
// virtual timeline (not real-clock defaults), and the dead member's skew
// handle must be retired so a late chaos action misses loudly instead of
// skewing a corpse.
func TestAutoHealRespawnVirtualClock(t *testing.T) {
	v := clock.NewVirtual()
	defer v.Stop()
	c, err := cluster.New(
		cluster.WithMembers("a", "b", "c"),
		cluster.WithVirtualTime(v),
		cluster.WithAutoHeal(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.JoinAll("g"); err != nil {
		t.Fatal(err)
	}
	if c.SkewMember("c") == nil {
		t.Fatal("SkewMember(c) nil before the failure")
	}
	if !c.CrashFollower("c") {
		t.Fatal("CrashFollower refused")
	}
	// Traffic forces output comparison inside c's pair, surfacing the
	// divergence as a fail-signal the controller remediates.
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
		t.Fatal("auto-heal controller never remediated under virtual time")
	}
	if ev.Failed != "c" || ev.Replacement != "c~2" || ev.Err != nil {
		t.Fatalf("heal event = %+v", ev)
	}
	if c.SkewMember("c") != nil {
		t.Fatal("dead member's skew handle survived the heal")
	}
	sk := c.SkewMember("c~2")
	if sk == nil {
		t.Fatal("replacement has no skew handle: it was built off the virtual timeline")
	}
	// The replacement's clock is a live view of v's timeline — and it must
	// start unskewed, whatever the victim's skew was.
	if got, want := sk.Now(), v.Now(); got.Before(want.Add(-time.Millisecond)) || got.After(want.Add(time.Millisecond)) {
		t.Fatalf("replacement clock reads %v, virtual timeline is at %v", got, want)
	}
	// And it is a working member: admitted, multicasting, delivered.
	awaitViewWith(t, c.Member("c~2"), 3, "c~2")
	if err := c.Member("c~2").Multicast("g", cluster.TotalSym, []byte("from-heal")); err != nil {
		t.Fatal(err)
	}
	awaitPayload(t, c.Member("b"), "from-heal")
	if v.Elapsed() <= 0 {
		t.Fatal("virtual clock never advanced")
	}
}

// TestClusterVirtualTimeRefusesRealTransport: virtual time cannot pace
// real sockets, and the builder must say so by name rather than wedge.
func TestClusterVirtualTimeRefusesRealTransport(t *testing.T) {
	tr, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	v := clock.NewVirtual()
	defer v.Stop()
	if _, err := cluster.New(
		cluster.WithMembers("alice", "bob"),
		cluster.WithTransport(tr),
		cluster.WithVirtualTime(v),
	); err == nil {
		t.Fatal("WithVirtualTime over tcpnet must refuse")
	}
}
