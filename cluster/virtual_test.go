package cluster_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"fsnewtop/cluster"
	"fsnewtop/internal/clock"
	"fsnewtop/internal/trace"
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
	// start unskewed, whatever the victim's skew was. The busy mark keeps
	// time still between the two reads.
	v.Busy()
	got, want := sk.Now(), v.Now()
	v.Done()
	if got.Before(want.Add(-time.Millisecond)) || got.After(want.Add(time.Millisecond)) {
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

// virtualTimeline runs one scripted cluster on a virtual clock and
// returns its merged trace timeline. Everything that acts on the cluster
// is a callback on the clock: bring-up and the joins at the first
// instant, a multicast every 7 ms round the members, m2 failing at 60 ms,
// and the timeline rendered at 1 s. An FS m2 loses its follower, which
// its pair converts to a fail-signal; a crash m2 is killed, and the ping
// suspector excludes it.
func virtualTimeline(t *testing.T, crash bool) string {
	t.Helper()
	v := clock.NewVirtual()
	defer v.Stop()
	reg := trace.NewRegistry(0, v.Now)
	names := []string{"m0", "m1", "m2", "m3"}
	opts := []cluster.Option{cluster.WithMembers(names...), cluster.WithVirtualTime(v), cluster.WithTrace(reg)}
	fault := func(c *cluster.Cluster) { c.CrashFollower("m2") }
	if crash {
		opts = append(opts, cluster.WithCrashTolerance(), cluster.WithPingSuspector(20*time.Millisecond, 100*time.Millisecond))
		fault = func(c *cluster.Cluster) { c.KillMember("m2") }
	}
	var c *cluster.Cluster
	out := make(chan string, 1)
	fail := make(chan error, 1)
	v.AfterFunc(0, func() {
		var err error
		if c, err = cluster.New(opts...); err == nil {
			err = c.JoinAll("g")
		}
		if err != nil {
			fail <- err
			return
		}
		for k := 0; k < 24; k++ {
			v.AfterFunc(time.Duration(k)*7*time.Millisecond, func() {
				_ = c.Member(names[k%len(names)]).Multicast("g", cluster.TotalSym, []byte(fmt.Sprintf("x%d", k)))
			})
		}
		v.AfterFunc(60*time.Millisecond, func() { fault(c) })
		v.AfterFunc(time.Second, func() {
			var b strings.Builder
			if err := reg.WriteTimeline(&b); err != nil {
				fail <- err
				return
			}
			out <- b.String()
		})
	})
	select {
	case err := <-fail:
		t.Fatal(err)
	case s := <-out:
		c.Close()
		return s
	case <-time.After(30 * time.Second):
		t.Fatal("the scripted run never reached its end")
	}
	return ""
}

// TestVirtualTimelineIsExact: on a virtual clock the whole stack runs on
// the clock's one driver, so a scripted run is one exact timeline — the
// merged trace, every event at its instant and in its order on every node,
// is byte-identical run after run and whatever GOMAXPROCS is. The FS run
// covers multicasts under total order, a follower crash and the
// fail-signal it converts to; the crash run, multicasts through the ORB
// and a killed member that the ping suspector excludes.
func TestVirtualTimelineIsExact(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		name  string
		crash bool
		want  []string
	}{
		{"fs", false, []string{"fail-signal", "compare-match", "rx-output"}},
		{"crash", true, []string{"round-close", "suspect", "view-install"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first string
			for _, procs := range []int{1, 4, 1, 4} {
				runtime.GOMAXPROCS(procs)
				got := virtualTimeline(t, tc.crash)
				if first == "" {
					first = got
					for _, want := range tc.want {
						if !strings.Contains(got, want) {
							t.Fatalf("the timeline has no %s event:\n%s", want, got)
						}
					}
					continue
				}
				if got != first {
					t.Fatalf("GOMAXPROCS %d: the timeline differs from the first run's:\n%s", procs, lineDiff(first, got))
				}
			}
		})
	}
}

// lineDiff renders the first line at which two timelines part.
func lineDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  first: %s\n  this:  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("one is a prefix of the other (%d against %d lines)", len(al), len(bl))
}
