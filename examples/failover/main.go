// Failover contrast: the paper's two failure-handling worlds side by side,
// expressed entirely in the public cluster API.
//
// Act 1 (crash-tolerant NewTOP): two members lose contact — nobody fails —
// and the timeout suspector splits the live group into disjoint views.
//
// Act 2 (FS-NewTOP): a replica node really fails; the pair emits its
// fail-signal; the survivors install one agreed view and keep ordering;
// no amount of message delay alone can make them reconfigure.
//
// Run with: go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"time"

	"fsnewtop/cluster"
	"fsnewtop/transport"
)

func main() {
	actOne()
	fmt.Println()
	actTwo()
}

// watch forwards one member's view installations and fail-signals into ch.
func watch(c *cluster.Cluster, name string, ch chan<- string) {
	m := c.Member(name)
	go func() {
		for {
			select {
			case <-m.Deliveries():
			case v := <-m.Views():
				ch <- fmt.Sprintf("  %s installed view %d: %v", name, v.ViewID, v.Members)
			case src := <-m.FailSignals():
				ch <- fmt.Sprintf("  %s received a fail-signal from %s", name, src)
			}
		}
	}()
}

// actOne shows the false-suspicion split in the crash-tolerant system.
func actOne() {
	fmt.Println("ACT 1 — crash NewTOP: message loss between live members")
	c, err := cluster.New(
		cluster.WithMembers("n1", "n2", "n3"),
		cluster.WithCrashTolerance(),
		cluster.WithPingSuspector(20*time.Millisecond, 150*time.Millisecond),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	if err := c.JoinAll("g"); err != nil {
		log.Fatal(err)
	}
	views := make(chan string, 64)
	for _, name := range c.Names() {
		watch(c, name, views)
	}
	drainFor(views, 400*time.Millisecond)
	fmt.Println("  -- blocking the n1<->n2 link; n1 and n2 are both alive --")
	if !c.Isolate("n1", "n2") {
		log.Fatal("transport refused fault injection")
	}
	drainFor(views, 3*time.Second)
	fmt.Println("  => the group split although no process failed (false suspicion)")
}

// actTwo shows fail-signal-driven reconfiguration in FS-NewTOP.
func actTwo() {
	fmt.Println("ACT 2 — FS-NewTOP: a real node failure, and mere delay for contrast")
	c, err := cluster.New(
		cluster.WithMembers("n1", "n2", "n3"),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	if err := c.JoinAll("g"); err != nil {
		log.Fatal(err)
	}
	views := make(chan string, 64)
	for _, name := range c.Names() {
		watch(c, name, views)
	}
	drainFor(views, 400*time.Millisecond)

	fmt.Println("  -- slowing every n1<->n2 link to 100ms (no failure) --")
	if !c.ShapeLinks("n1", "n2", transport.Profile{Latency: transport.Fixed(100 * time.Millisecond)}) {
		log.Fatal("transport refused fault injection")
	}
	if err := c.Member("n1").Multicast("g", cluster.TotalSym, []byte("slow but safe")); err != nil {
		log.Fatal(err)
	}
	drainFor(views, 3*time.Second)
	fmt.Println("  => no reconfiguration: delay alone cannot trigger a (sure) suspicion")

	fmt.Println("  -- crashing n3's follower node for real --")
	c.CrashFollower("n3")
	if err := c.Member("n1").Multicast("g", cluster.TotalSym, []byte("trigger output comparison")); err != nil {
		log.Fatal(err)
	}
	drainFor(views, 10*time.Second)
	fmt.Println("  => one agreed new view, driven by the verified fail-signal")
}

// drainFor prints queued view events for a while.
func drainFor(ch <-chan string, d time.Duration) {
	deadline := time.After(d)
	for {
		select {
		case s := <-ch:
			fmt.Println(s)
		case <-deadline:
			return
		}
	}
}
