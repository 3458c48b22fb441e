package cluster_test

import (
	"bytes"
	"testing"
	"time"

	"fsnewtop/cluster"
)

// nextDelivery waits for m's next delivery, draining views meanwhile.
func nextDelivery(t *testing.T, m *cluster.Member) cluster.Delivery {
	t.Helper()
	timeout := time.After(30 * time.Second)
	for {
		select {
		case d := <-m.Deliveries():
			return d
		case <-m.Views():
		case <-timeout:
			t.Fatalf("%s: no delivery", m.Name())
		}
	}
}

// TestApplicationMayScribbleOnDelivery pins the application edge of the
// ownership rule: inside the stack nobody writes to a payload, so decoded
// messages — the ones the protocol machine keeps for retransmission among
// them — may alias what arrived; what the application is handed is its own.
// Two members overwrite every byte of a delivery, the sender's own copy
// among them, while a third, cut off when the message was sent, has yet to
// receive it: the retransmission it then asks the sender for, and every
// later delivery, carry what was sent. Each NSO makes its own copy out, so
// the test runs on both kinds of member.
func TestApplicationMayScribbleOnDelivery(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []cluster.Option
	}{
		{"fs", nil},
		{"crash", []cluster.Option{
			cluster.WithCrashTolerance(),
			cluster.WithPingSuspector(20*time.Millisecond, time.Hour), // the cut must not become a view change
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { scribbleOnDelivery(t, tc.opts) })
	}
}

func scribbleOnDelivery(t *testing.T, opts []cluster.Option) {
	c, err := cluster.New(append(opts, cluster.WithMembers("a", "b", "c"))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.JoinAll("g"); err != nil {
		t.Fatal(err)
	}
	first := bytes.Repeat([]byte("first-message:"), 600) // ~8 KiB
	second := []byte("second")

	if !c.Isolate("a", "c") {
		t.Fatal("netsim must support partitions")
	}
	if err := c.Member("a").Multicast("g", cluster.Reliable, append([]byte(nil), first...)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		d := nextDelivery(t, c.Member(name))
		if !bytes.Equal(d.Payload, first) {
			t.Fatalf("%s delivered %d bytes, want the %d sent", name, len(d.Payload), len(first))
		}
		scribble(d)
	}

	c.Heal("a", "c")
	// The next message shows c the gap; c asks a for what it missed.
	if err := c.Member("a").Multicast("g", cluster.Reliable, append([]byte(nil), second...)); err != nil {
		t.Fatal(err)
	}
	// c scribbles on each delivery before it reads the next.
	for _, want := range [][]byte{first, second} {
		d := nextDelivery(t, c.Member("c"))
		if d.Origin != "a" || !bytes.Equal(d.Payload, want) {
			t.Fatalf("c delivered %d bytes from %s (%.16q...), want the %d sent: a scribble reached the retransmission or the next delivery",
				len(d.Payload), d.Origin, d.Payload, len(want))
		}
		scribble(d)
	}
	for _, name := range []string{"a", "b"} {
		if d := nextDelivery(t, c.Member(name)); !bytes.Equal(d.Payload, second) {
			t.Fatalf("%s delivered %q after the scribble, want %q", name, d.Payload, second)
		}
	}
}

// scribble overwrites every byte the application was handed, up to the
// slice's capacity — what an application reusing a delivered payload as a
// scratch buffer does.
func scribble(d cluster.Delivery) {
	p := d.Payload[:cap(d.Payload)]
	for i := range p {
		p[i] = 0xEE
	}
}

// TestBytesBudget8K is the deterministic fence on the FS bytes path: four
// members, 8 KiB multicasts over netsim, counted by the transport. One
// multicast may put at most 280 kB and 64 messages on the fabric — counts,
// not times. (The parent of the change that added this put 334 kB there;
// the t1 = 0 relay race moves the figures by a few per cent run to run,
// hence the headroom over the 253 kB / 60 measured.)
func TestBytesBudget8K(t *testing.T) {
	c, err := cluster.New(
		cluster.WithMembers("a", "b", "c", "d"),
		cluster.WithDelta(500*time.Millisecond), // a loaded test host must not look like a dead peer
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.JoinAll("g"); err != nil {
		t.Fatal(err)
	}
	names := c.Names()
	round := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			for _, name := range names {
				if err := c.Member(name).Multicast("g", cluster.TotalSym, make([]byte, 8<<10)); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range names {
				for range names {
					nextDelivery(t, c.Member(name))
				}
			}
		}
	}
	round(2) // bring-up traffic and first-use allocations are not a multicast's cost
	before, _ := c.Stats()
	const rounds = 10
	round(rounds)
	after, _ := c.Stats()
	for _, name := range names {
		if c.PairFailed(name) {
			t.Fatalf("%s fail-signalled", name)
		}
	}
	multicasts := uint64(rounds * len(names))
	bytesPer := (after.Bytes - before.Bytes) / multicasts
	msgsPer := (after.Sent - before.Sent) / multicasts
	t.Logf("%d B and %d messages per 8 KiB multicast", bytesPer, msgsPer)
	if bytesPer > 280_000 || msgsPer > 64 {
		t.Fatalf("one 8 KiB multicast cost %d B in %d messages; the budget is 280000 B and 64", bytesPer, msgsPer)
	}
}
