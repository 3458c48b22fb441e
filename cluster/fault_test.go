package cluster_test

import (
	"strings"
	"testing"
	"time"

	"fsnewtop/cluster"
)

// waitFor polls cond for up to timeout.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// TestInjectValueFaultConverts arms a corrupt-output fault on one half of
// a running member's pair and checks the paper's headline claim end to
// end through the public API: the divergence converts into a verified
// fail-signal (PairFailed flips, peers observe the signal), while the
// other members deliver only payloads that were actually multicast.
func TestInjectValueFaultConverts(t *testing.T) {
	c, err := cluster.New(
		cluster.WithMembers("a", "b", "c"),
		cluster.WithDelta(250*time.Millisecond),
		cluster.WithFaultPlan(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.JoinAll("g"); err != nil {
		t.Fatal(err)
	}

	if !c.CanInjectFaults() {
		t.Fatal("default netsim cluster must support fault injection")
	}
	if err := c.InjectValueFault("a", cluster.LeaderHalf, cluster.FaultSpec{
		Mode: cluster.CorruptOutputs, Every: 1,
	}); err != nil {
		t.Fatal(err)
	}

	// Drive traffic until the armed fault fires and the pair converts.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			_ = c.Member("a").Multicast("g", cluster.TotalSym, []byte("x"))
			_ = c.Member("b").Multicast("g", cluster.TotalSym, []byte("y"))
		}
	}()

	if !waitFor(t, 15*time.Second, func() bool { return c.ValueFaultsInjected("a") > 0 }) {
		t.Fatal("armed corrupt fault never fired")
	}
	if !waitFor(t, 15*time.Second, func() bool { return c.PairFailed("a") }) {
		t.Fatal("value fault fired but a's pair never fail-signalled")
	}

	// The survivors must verify the fail-signal and reconfigure around
	// "a" — and any fail-signal surfaced to the application must name "a"
	// (anything else would be a false suspicion).
	deadline := time.After(30 * time.Second)
	for {
		select {
		case src := <-c.Member("b").FailSignals():
			if src != "a" {
				t.Fatalf("false suspicion: fail-signal from un-faulted member %q", src)
			}
		case v := <-c.Member("b").Views():
			if len(v.Members) == 2 {
				return // reconfigured around the faulted member
			}
		case <-c.Member("b").Deliveries():
		case <-deadline:
			t.Fatal("survivors never installed the post-conversion view")
		}
	}
}

// TestInjectValueFaultRequiresPlan: arming a fault on a cluster built
// without WithFaultPlan must fail loudly — the switches can only be
// threaded through the pair at construction time.
func TestInjectValueFaultRequiresPlan(t *testing.T) {
	c, err := cluster.New(cluster.WithMembers("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.InjectValueFault("a", cluster.LeaderHalf, cluster.FaultSpec{Mode: cluster.CorruptOutputs})
	if err == nil {
		t.Fatal("InjectValueFault succeeded without WithFaultPlan")
	}
	if !strings.Contains(err.Error(), "WithFaultPlan") {
		t.Fatalf("error should point at WithFaultPlan, got: %v", err)
	}
}

// TestInjectValueFaultCrashTolerant: crash-stop members have no pair to
// fault; the request must be refused, not ignored.
func TestInjectValueFaultCrashTolerant(t *testing.T) {
	c, err := cluster.New(
		cluster.WithMembers("a", "b"),
		cluster.WithCrashTolerance(),
		cluster.WithFaultPlan(), // ignored for crash members, and said so on use
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.InjectValueFault("a", cluster.LeaderHalf, cluster.FaultSpec{Mode: cluster.DropOutputs})
	if err == nil {
		t.Fatal("InjectValueFault succeeded on a crash-tolerant cluster")
	}
	if !strings.Contains(err.Error(), "crash-tolerant") {
		t.Fatalf("error should say crash-tolerant, got: %v", err)
	}
}
