package fsnewtop

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/group"
	"fsnewtop/internal/trace"
	"fsnewtop/transport/netsim"
)

// batchTweak enables the batch plane with the given window.
func batchTweak(b BatchConfig) func(string, *Config) {
	return func(_ string, cfg *Config) { cfg.Batch = b }
}

// TestBatchedClusterTotalOrder runs the symmetric total-order workload
// with the full batch plane on (window + output coalescing) and requires the exact guarantees of the unbatched system:
// identical delivery order everywhere, nothing lost, no fail-signals.
func TestBatchedClusterTotalOrder(t *testing.T) {
	c := newCluster(t, 3, batchTweak(BatchConfig{Enabled: true, MaxDelay: 5 * time.Millisecond}))
	c.joinAll(t, "g")
	const per = 10
	for i := 0; i < per; i++ {
		for _, m := range c.members {
			if err := c.nsos[m].Multicast("g", group.TotalSym, []byte(fmt.Sprintf("%s#%d", m, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := per * len(c.members)
	ref := c.cols[c.members[0]].waitN(t, total, 30*time.Second)
	for _, m := range c.members[1:] {
		got := c.cols[m].waitN(t, total, 30*time.Second)
		if !reflect.DeepEqual(got[:total], ref[:total]) {
			t.Fatalf("total order differs between %s and %s:\n%v\n%v", c.members[0], m, ref[:total], got[:total])
		}
	}
	for _, m := range c.members {
		if c.nsos[m].Pair().Failed() {
			t.Fatalf("pair %s fail-signalled in a healthy batched run", m)
		}
	}
}

// TestBatchWindowCoalescesBursts proves the window actually amortizes: a
// burst submitted faster than MaxDelay must reach the pair as fewer
// submissions than multicasts, at least one of them a KindBatch envelope,
// with every payload still delivered in order.
func TestBatchWindowCoalescesBursts(t *testing.T) {
	net := netsim.New(clock.NewReal(), netsim.WithDefaultProfile(netsim.Profile{Latency: netsim.Fixed(100 * time.Microsecond)}))
	t.Cleanup(net.Close)
	fab := NewFabric(net, clock.NewReal())
	fab.Trace = trace.NewRegistry(0, nil)

	members := []string{"a", "b", "c"}
	nsos := make(map[string]*NSO)
	cols := make(map[string]*collector)
	for _, name := range members {
		peers := make([]string, 0, 2)
		for _, p := range members {
			if p != name {
				peers = append(peers, p)
			}
		}
		nso, err := New(Config{
			Name:         name,
			Fabric:       fab,
			Peers:        peers,
			Delta:        150 * time.Millisecond,
			TickInterval: 5 * time.Millisecond,
			Batch:        BatchConfig{Enabled: true, MaxDelay: 20 * time.Millisecond},
			GC:           group.Config{ResendAfter: 20 * time.Millisecond, ViewRetryAfter: 100 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		nsos[name] = nso
		col := collect(nso)
		cols[name] = col
		t.Cleanup(func() { col.stop(); nso.Close() })
	}
	for _, m := range members {
		if err := nsos[m].Join("g", members); err != nil {
			t.Fatal(err)
		}
	}

	const burst = 20
	for i := 0; i < burst; i++ {
		if err := nsos["a"].Multicast("g", group.TotalSym, []byte(fmt.Sprintf("p%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]string, burst)
	for i := range want {
		want[i] = fmt.Sprintf("p%02d", i)
	}
	for _, m := range members {
		if got := cols[m].waitN(t, burst, 30*time.Second); !reflect.DeepEqual(got[:burst], want) {
			t.Fatalf("%s delivered %v, want %v", m, got[:burst], want)
		}
	}

	// The trace's reissue events are the pair-submission record: count
	// a's multicast-path submissions and find the batch envelopes.
	var mcastSubs, batchSubs int
	for _, ev := range fab.Trace.Snapshot() {
		if ev.Node != invName("a") || ev.Kind != trace.EvReissue {
			continue
		}
		switch ev.Note {
		case group.KindMcast:
			mcastSubs++
		case group.KindBatch:
			batchSubs++
		}
	}
	if batchSubs == 0 {
		t.Fatalf("burst of %d produced no batched submission (%d plain)", burst, mcastSubs)
	}
	if mcastSubs+batchSubs >= burst {
		t.Fatalf("burst of %d reached the pair as %d submissions — no amortization", burst, mcastSubs+batchSubs)
	}
	t.Logf("burst of %d multicasts -> %d submissions (%d batched)", burst, mcastSubs+batchSubs, batchSubs)
}

// TestBatchWindowMaxDelayFlushWhenIdle covers the window's self-draining:
// a window left alone (no size-cap hit, no further traffic) must still
// flush — on the in-flight round's return, or failing that the backstop
// timer — and deliver everything.
func TestBatchWindowMaxDelayFlushWhenIdle(t *testing.T) {
	c := newCluster(t, 3, batchTweak(BatchConfig{Enabled: true, MaxDelay: 25 * time.Millisecond, MaxMsgs: 1 << 20, MaxBytes: 1 << 30}))
	c.joinAll(t, "g")
	// First multicast goes out on the idle-pipe rule; the next two land in
	// a window that only its round's return or the backstop can flush.
	for i := 0; i < 3; i++ {
		if err := c.nsos["m00"].Multicast("g", group.TotalSym, []byte(fmt.Sprintf("i%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"i0", "i1", "i2"}
	for _, m := range c.members {
		if got := c.cols[m].waitN(t, 3, 10*time.Second); !reflect.DeepEqual(got[:3], want) {
			t.Fatalf("%s delivered %v, want %v", m, got[:3], want)
		}
	}
}

// TestBatchWindowFlushesOnFailSignal covers the mid-window fail-signal
// edge: when the member's pair fail-signals while a window is open, the
// window must flush rather than strand its submissions behind MaxDelay.
func TestBatchWindowFlushesOnFailSignal(t *testing.T) {
	// A huge MaxDelay and uncapped sizes: nothing but the fail-signal
	// path can flush this window.
	c := newCluster(t, 3, batchTweak(BatchConfig{Enabled: true, MaxDelay: time.Hour, MaxMsgs: 1 << 20, MaxBytes: 1 << 30}))
	c.joinAll(t, "g")
	n := c.nsos["m00"]
	// Open a window: the first submission finds the pipe idle and goes out
	// immediately, the rest accumulate behind its in-flight round.
	for i := 0; i < 4; i++ {
		if err := n.Multicast("g", group.TotalSym, []byte(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	n.bmu.Lock()
	pending := len(n.bpending)
	n.bmu.Unlock()
	if pending == 0 {
		t.Fatal("window did not accumulate (test premise broken)")
	}

	n.Pair().Leader.InjectFailSignal()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n.bmu.Lock()
		pending = len(n.bpending)
		n.bmu.Unlock()
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("window still holds %d submissions after the pair fail-signalled", pending)
		}
		time.Sleep(time.Millisecond)
	}
}
