// Command fsdemo narrates the paper's core claims on a live in-process
// cluster, entirely through the public cluster API:
//
//	fsdemo -fault crash   # a replica node dies; its pair fail-signals
//	fsdemo -fault fs2     # a node emits fail-signals arbitrarily
//	fsdemo -fault none    # failure-free run
//	fsdemo -fault split   # contrast: crash-NewTOP splits under message loss
//
// In every FS-NewTOP scenario the surviving members agree on one new view
// and keep totally ordering messages; in the crash-NewTOP contrast, two
// live members expel each other — the group splits with no failure at all.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fsnewtop/cluster"
)

func main() {
	fault := flag.String("fault", "crash", "fault to inject: none, crash, fs2, split")
	flag.Parse()
	switch *fault {
	case "none", "crash", "fs2":
		runFS(*fault)
	case "split":
		runSplit()
	default:
		fmt.Fprintf(os.Stderr, "unknown fault %q\n", *fault)
		os.Exit(2)
	}
}

// fatal prints and exits.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// runFS demonstrates FS-NewTOP under the chosen fault.
func runFS(fault string) {
	fmt.Println("== FS-NewTOP: 3 members, each a self-checking pair (6 middleware nodes) ==")
	c, err := cluster.New(
		cluster.WithMembers("alice", "bob", "carol"),
	)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	if err := c.JoinAll("demo"); err != nil {
		fatal(err)
	}

	// Narrate alice's event streams.
	go func() {
		a := c.Member("alice")
		for {
			select {
			case d := <-a.Deliveries():
				fmt.Printf("  alice delivered %-18q from %s (totally ordered)\n", d.Payload, d.Origin)
			case v := <-a.Views():
				fmt.Printf("  alice installed view %d: %v\n", v.ViewID, v.Members)
			case src := <-a.FailSignals():
				fmt.Printf("  alice's invocation layer received a fail-signal from %s\n", src)
			}
		}
	}()
	for _, name := range []string{"bob", "carol"} {
		m := c.Member(name)
		go func() {
			for {
				select {
				case <-m.Deliveries():
				case <-m.Views():
				case <-m.FailSignals():
				}
			}
		}()
	}

	say := func(who, text string) {
		if err := c.Member(who).Multicast("demo", cluster.TotalSym, []byte(text)); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	say("alice", "hello from alice")
	say("bob", "hello from bob")
	say("carol", "hello from carol")
	time.Sleep(500 * time.Millisecond)

	switch fault {
	case "crash":
		fmt.Println("-- injecting fault: carol's follower node crashes silently --")
		c.CrashFollower("carol")
		say("alice", "message after the crash")
	case "fs2":
		fmt.Println("-- injecting fault: carol's leader node emits its fail-signal arbitrarily (fs2) --")
		c.InjectFailSignal("carol")
	case "none":
		fmt.Println("-- no fault injected --")
	}
	time.Sleep(1500 * time.Millisecond)

	say("alice", "ordering still works")
	say("bob", "indeed it does")
	time.Sleep(time.Second)
	fmt.Println("== done ==")
}

// runSplit demonstrates the crash-NewTOP false-suspicion split.
func runSplit() {
	fmt.Println("== crash NewTOP: 3 members; alice and bob lose contact (NOBODY crashes) ==")
	c, err := cluster.New(
		cluster.WithMembers("alice", "bob", "carol"),
		cluster.WithCrashTolerance(),
		cluster.WithPingSuspector(20*time.Millisecond, 150*time.Millisecond),
	)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	if err := c.JoinAll("demo"); err != nil {
		fatal(err)
	}
	for _, name := range c.Names() {
		name := name
		m := c.Member(name)
		go func() {
			for {
				select {
				case <-m.Deliveries():
				case v := <-m.Views():
					fmt.Printf("  %s installed view %d: %v\n", name, v.ViewID, v.Members)
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	fmt.Println("-- blocking the alice↔bob link (both stay alive and connected to carol) --")
	if !c.Isolate("alice", "bob") {
		fatal(fmt.Errorf("transport cannot inject partitions; the split narrative would be vacuous"))
	}
	time.Sleep(3 * time.Second)
	fmt.Println("== note the disjoint views: the group split although no process failed ==")
	fmt.Println("== FS-NewTOP cannot do this: suspicions require a verified fail-signal ==")
}
