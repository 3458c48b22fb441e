package cluster_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"fsnewtop/cluster"
	"fsnewtop/internal/clock"
	"fsnewtop/internal/group"
	"fsnewtop/internal/trace"
	"fsnewtop/transport"
	"fsnewtop/transport/netsim"
	"fsnewtop/transport/tcpnet"
)

// drainMember consumes a member's event streams, forwarding deliveries.
func drainMember(t *testing.T, m *cluster.Member, n int) []string {
	t.Helper()
	got := make([]string, 0, n)
	timeout := time.After(60 * time.Second)
	for len(got) < n {
		select {
		case d := <-m.Deliveries():
			got = append(got, fmt.Sprintf("%s:%s", d.Origin, d.Payload))
		case <-m.Views():
		case <-timeout:
			t.Fatalf("%s: timed out after %d of %d deliveries", m.Name(), len(got), n)
		}
	}
	return got
}

// runTotalOrder drives one cluster through the canonical workload: every
// member multicasts, every member must deliver the identical sequence.
func runTotalOrder(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	if err := c.JoinAll("g"); err != nil {
		t.Fatal(err)
	}
	const perMember = 5
	names := c.Names()
	for i := 0; i < perMember; i++ {
		for _, name := range names {
			payload := []byte(fmt.Sprintf("msg-%d", i))
			if err := c.Member(name).Multicast("g", cluster.TotalSym, payload); err != nil {
				t.Fatalf("%s multicast: %v", name, err)
			}
		}
	}
	total := perMember * len(names)
	sequences := make(map[string][]string, len(names))
	for _, name := range names {
		sequences[name] = drainMember(t, c.Member(name), total)
	}
	ref := sequences[names[0]]
	for _, name := range names[1:] {
		got := sequences[name]
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("total order violated at %d: %s saw %q, %s saw %q",
					i, names[0], ref[i], name, got[i])
			}
		}
	}
}

// TestClusterNetsim runs the facade end to end on the default simulated
// backend.
func TestClusterNetsim(t *testing.T) {
	c, err := cluster.New(cluster.WithMembers("alice", "bob", "carol"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.Stats(); !ok {
		t.Fatal("netsim backend must expose stats")
	}
	runTotalOrder(t, c)
}

// TestClusterTCP runs the identical workload over real TCP sockets — the
// acceptance bar for transport transparency: application code cannot tell
// the backends apart.
func TestClusterTCP(t *testing.T) {
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
	if c.Isolate("alice", "bob") {
		t.Fatal("tcpnet must refuse fault injection")
	}
	runTotalOrder(t, c)
}

// TestClusterBatchedTotalOrder runs the canonical workload — a burst from
// every member, which the accumulation window batches behind each
// in-flight round — and requires that batching is invisible to the
// application: same deliveries, same total order, no fail-signals.
func TestClusterBatchedTotalOrder(t *testing.T) {
	reg := trace.NewRegistry(0, nil)
	c, err := cluster.New(
		cluster.WithMembers("alice", "bob", "carol"),
		cluster.WithTrace(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runTotalOrder(t, c)
	for _, name := range c.Names() {
		if c.PairFailed(name) {
			t.Fatalf("batching caused a fail-signal on %s", name)
		}
	}
	batches := 0
	for _, ev := range reg.Snapshot() {
		if ev.Kind == trace.EvReissue && ev.Note == group.KindBatch {
			batches++
		}
	}
	if batches == 0 {
		t.Fatal("a burst from every member reached the pairs without a single batch")
	}
}

// TestMemberGoroutineBudget counts what one member adds on a transport the
// caller owns. An FS member is its pair's two replica loops: 2, with no
// ORB pool and no loop for the window's backstop (a clock callback); on a
// virtual clock it is 0, every loop a pass on the clock's driver. A crash
// member is the ORB's 10 pool workers (the paper's request pool) and the
// GC driver's loop: 11.
// Nothing stands between an NSO and the application. None outlive Close.
func TestMemberGoroutineBudget(t *testing.T) {
	net := netsim.New(clock.NewReal(), netsim.WithShards(1))
	defer net.Close()
	net.Register("warm", func(netsim.Message) {})
	if err := net.Send("warm", "warm", "warm-up", nil); err != nil { // start the one dispatcher
		t.Fatal(err)
	}
	for net.Stats().Delivered == 0 {
		time.Sleep(time.Millisecond)
	}
	v := clock.NewVirtual() // its driver is the one goroutine of a virtual run
	defer v.Stop()
	vnet := netsim.New(v)
	defer vnet.Close()
	base := stableGoroutines()
	for _, tc := range []struct {
		name string
		net  *netsim.Network
		opts []cluster.Option
		per  int
	}{
		{"fs", net, nil, 2},
		{"crash", net, []cluster.Option{cluster.WithCrashTolerance(), cluster.WithPingSuspector(20*time.Millisecond, time.Hour)}, 11},
		{"virtual", vnet, []cluster.Option{cluster.WithVirtualTime(v)}, 0},
	} {
		names := []string{tc.name + "0", tc.name + "1", tc.name + "2", tc.name + "3"}
		c, err := cluster.New(append(tc.opts, cluster.WithTransport(tc.net), cluster.WithMembers(names...))...)
		if err != nil {
			t.Fatal(err)
		}
		runTotalOrder(t, c)
		if got, want := stableGoroutines()-base, tc.per*len(names); got != want {
			c.Close()
			t.Fatalf("%s: %d members add %d goroutines, want %d (%d each)", tc.name, len(names), got, want, tc.per)
		}
		c.Close()
		if got := stableGoroutines(); got != base {
			t.Fatalf("%s: %d goroutines outlive Close", tc.name, got-base)
		}
	}
}

// stableGoroutines waits until the goroutine count holds still, so
// goroutines that are just starting or exiting do not shift a count.
func stableGoroutines() int {
	prev, same := -1, 0
	for i := 0; i < 1000 && same < 5; i++ {
		n := runtime.NumGoroutine()
		if n == prev {
			same++
		} else {
			prev, same = n, 0
		}
		time.Sleep(2 * time.Millisecond)
	}
	return prev
}

// TestClusterCrashTolerance builds the baseline system and checks the
// fail-signal helpers refuse, a crash member has no fail-signal stream,
// and auto-heal is refused: a crash member's exclusion from a view may be
// a false suspicion, and remediation acts only on verified fail-signals.
// Virtual time is refused too: the ORB pool's goroutines are not loops
// the virtual clock's driver can run.
func TestClusterCrashTolerance(t *testing.T) {
	opts := []cluster.Option{
		cluster.WithMembers("n1", "n2"),
		cluster.WithCrashTolerance(),
		cluster.WithPingSuspector(20*time.Millisecond, time.Hour),
	}
	if c, err := cluster.New(append(opts, cluster.WithAutoHeal())...); err == nil {
		c.Close()
		t.Fatal("New accepted WithAutoHeal under WithCrashTolerance")
	} else if !strings.Contains(err.Error(), "fail-signal") {
		t.Fatalf("refusal does not say why: %v", err)
	}
	v := clock.NewVirtual()
	defer v.Stop()
	if c, err := cluster.New(append(opts, cluster.WithVirtualTime(v))...); err == nil {
		c.Close()
		t.Fatal("New accepted WithVirtualTime under WithCrashTolerance")
	} else if !strings.Contains(err.Error(), "ORB request pool") {
		t.Fatalf("refusal does not say why: %v", err)
	}
	c, err := cluster.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.CrashFollower("n1") || c.InjectFailSignal("n2") {
		t.Fatal("crash-tolerant members have no FS pair to fault")
	}
	if c.Member("n1").FailSignals() != nil {
		t.Fatal("a crash member's fail-signal stream must be the nil channel")
	}
	runTotalOrder(t, c)
}

// TestClusterFailSignal crashes a follower node and expects the pair's
// verified fail-signal to reach the surviving members as a new view that
// excludes the failed member.
func TestClusterFailSignal(t *testing.T) {
	c, err := cluster.New(
		cluster.WithMembers("a", "b", "c"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.JoinAll("g"); err != nil {
		t.Fatal(err)
	}
	if !c.CrashFollower("c") {
		t.Fatal("CrashFollower refused")
	}
	// Traffic forces output comparison inside c's pair, which surfaces the
	// divergence and triggers the fail-signal.
	if err := c.Member("a").Multicast("g", cluster.TotalSym, []byte("probe")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(60 * time.Second)
	for {
		select {
		case v := <-c.Member("a").Views():
			if len(v.Members) == 2 {
				return // reconfigured around the failed member
			}
		case <-c.Member("a").Deliveries():
		case <-deadline:
			t.Fatal("survivors never installed the post-failure view")
		}
	}
}

var _ transport.Transport = (*tcpnet.Transport)(nil)
