package netsim

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fsnewtop/internal/clock"
)

// virtualTrajectory runs a fixed scripted workload over a virtual clock
// with a single dispatcher shard and returns the full delivery trajectory:
// one "virtual-nanos from->to payload" line per delivery, in delivery
// order. Same seed must mean byte-identical output. opts apply after the
// default profile, so they can override it.
func virtualTrajectory(t *testing.T, seed int64, opts ...Option) string {
	t.Helper()
	v := clock.NewVirtual()
	defer v.Stop()
	opts = append([]Option{WithSeed(seed), WithShards(1), WithDefaultProfile(Profile{
		Latency:        Uniform{Min: 100 * time.Microsecond, Max: 2 * time.Millisecond},
		BytesPerSecond: 1 << 20,
	})}, opts...)
	n := New(v, opts...)
	defer n.Close()

	epoch := v.Now()
	const msgs = 50
	var (
		mu    sync.Mutex
		lines []string
		got   int
	)
	done := make(chan struct{})
	record := func(m Message) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf("%d %s->%s %s", v.Now().Sub(epoch).Nanoseconds(), m.From, m.To, m.Payload))
		got++
		if got == 2*msgs {
			close(done)
		}
		mu.Unlock()
	}
	n.Register("a", record)
	n.Register("b", func(m Message) {
		record(m)
		// Reply from the dispatcher goroutine: exercises reentrant sends.
		if err := n.Send("b", "a", "ack", []byte("ack-"+string(m.Payload))); err != nil {
			t.Errorf("reply send: %v", err)
		}
	})

	// Script every send while holding a busy mark, so the virtual clock
	// cannot advance mid-script: the trajectory is then a pure function of
	// the seed.
	v.Busy()
	for i := 0; i < msgs; i++ {
		if err := n.Send("a", "b", "data", []byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	v.Done()

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("trajectory stalled: %d/%d deliveries", got, 2*msgs)
	}
	mu.Lock()
	defer mu.Unlock()
	return strings.Join(lines, "\n")
}

func TestVirtualTrajectoryDeterministic(t *testing.T) {
	first := virtualTrajectory(t, 42)
	for run := 0; run < 3; run++ {
		if again := virtualTrajectory(t, 42); again != first {
			t.Fatalf("same seed produced different trajectories:\n--- run 0\n%s\n--- run %d\n%s", first, run+1, again)
		}
	}
	if other := virtualTrajectory(t, 43); other == first {
		t.Fatal("different seeds produced identical trajectories; jitter is not being drawn")
	}
}

// TestVirtualTrajectoryDeterministicCoalesced pins replay when the
// dispatcher coalesces deliveries: with a fixed a→b latency the whole
// scripted burst falls due at one virtual instant and is drained as one
// locked batch, and each delivery's reply draws its jitter in batch
// order. Same seed must still mean the byte-identical trajectory.
func TestVirtualTrajectoryDeterministicCoalesced(t *testing.T) {
	fixedOut := func(n *Network) { n.SetOneWayProfile("a", "b", Profile{Latency: Fixed(time.Millisecond)}) }
	first := virtualTrajectory(t, 42, fixedOut)
	instants := map[string]bool{}
	for _, line := range strings.Split(first, "\n") {
		if at, rest, _ := strings.Cut(line, " "); strings.HasPrefix(rest, "a->b ") {
			instants[at] = true
		}
	}
	if len(instants) != 1 {
		t.Fatalf("burst delivered at %d virtual instants, want 1 coalesced batch", len(instants))
	}
	for run := 0; run < 3; run++ {
		if again := virtualTrajectory(t, 42, fixedOut); again != first {
			t.Fatalf("same seed produced different trajectories:\n--- run 0\n%s\n--- run %d\n%s", first, run+1, again)
		}
	}
	if other := virtualTrajectory(t, 43, fixedOut); other == first {
		t.Fatal("different seeds produced identical trajectories; reply jitter is not being drawn")
	}
}

func TestVirtualDeliveryAtExactProfileDelay(t *testing.T) {
	v := clock.NewVirtual()
	defer v.Stop()
	const delta = 250 * time.Millisecond
	n := New(v, WithShards(1), WithDefaultProfile(Profile{Latency: Fixed(delta)}))
	defer n.Close()

	epoch := v.Now()
	at := make(chan time.Duration, 1)
	n.Register("dst", func(m Message) { at <- v.Now().Sub(epoch) })
	n.Register("src", func(Message) {})
	if err := n.Send("src", "dst", "k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-at:
		if d != delta {
			t.Fatalf("delivered at virtual +%v, want exactly +%v", d, delta)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery never happened under virtual clock")
	}
}
