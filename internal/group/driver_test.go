package group

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/sm"
	"fsnewtop/transport/netsim"
)

// driverCluster runs real Drivers over netsim: the crash-NewTOP deployment
// shape (one GC process per member, asynchronous network, real timers).
type driverCluster struct {
	t       *testing.T
	net     *netsim.Network
	names   []string
	drivers map[string]*Driver

	mu        sync.Mutex
	delivered map[string][]string
	views     map[string][]ViewNote
}

func newDriverCluster(t *testing.T, cfg Config, names ...string) *driverCluster {
	t.Helper()
	dc := &driverCluster{
		t:         t,
		net:       netsim.New(clock.NewReal(), netsim.WithDefaultProfile(netsim.Profile{Latency: netsim.Fixed(100 * time.Microsecond)})),
		names:     names,
		drivers:   make(map[string]*Driver),
		delivered: make(map[string][]string),
		views:     make(map[string][]ViewNote),
	}
	t.Cleanup(dc.net.Close)
	for _, n := range names {
		n := n
		mcfg := cfg
		mcfg.Self = n
		machine := New(mcfg)
		d, err := NewDriver(DriverConfig{
			Machine:      machine,
			Clock:        clock.NewReal(),
			TickInterval: 5 * time.Millisecond,
			Send: func(to, kind string, payload []byte) {
				_ = dc.net.Send(netsim.Addr(n), netsim.Addr(to), kind, payload)
			},
			OnDeliver: func(del Deliver) {
				dc.mu.Lock()
				dc.delivered[n] = append(dc.delivered[n], string(del.Payload))
				dc.mu.Unlock()
			},
			OnView: func(v ViewNote) {
				dc.mu.Lock()
				dc.views[n] = append(dc.views[n], v)
				dc.mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		dc.drivers[n] = d
		dc.net.Register(netsim.Addr(n), func(msg netsim.Message) {
			d.Submit(sm.Input{Kind: msg.Kind, From: string(msg.From), Payload: msg.Payload})
		})
		t.Cleanup(d.Close)
	}
	return dc
}

func (dc *driverCluster) waitDelivered(member string, count int, d time.Duration) []string {
	dc.t.Helper()
	deadline := time.Now().Add(d)
	for {
		dc.mu.Lock()
		got := append([]string(nil), dc.delivered[member]...)
		dc.mu.Unlock()
		if len(got) >= count {
			return got
		}
		if time.Now().After(deadline) {
			dc.t.Fatalf("%s delivered %d of %d: %v", member, len(got), count, got)
		}
		time.Sleep(time.Millisecond)
	}
}

func (dc *driverCluster) lastView(member string) ViewNote {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	vs := dc.views[member]
	if len(vs) == 0 {
		return ViewNote{}
	}
	return vs[len(vs)-1]
}

func TestDriverSymmetricOrderOverNetwork(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	dc := newDriverCluster(t, Config{Mode: SuspectPing, SuspectAfter: 10 * time.Second}, names...)
	for _, n := range names {
		dc.drivers[n].Join("g", names)
	}
	const per = 20
	for i := 0; i < per; i++ {
		for _, n := range names {
			dc.drivers[n].Multicast("g", TotalSym, []byte(fmt.Sprintf("%s-%d", n, i)))
		}
	}
	ref := dc.waitDelivered("n1", per*len(names), 15*time.Second)
	for _, n := range names[1:] {
		got := dc.waitDelivered(n, per*len(names), 15*time.Second)
		if !reflect.DeepEqual(got[:per*len(names)], ref[:per*len(names)]) {
			t.Fatalf("total order differs between n1 and %s", n)
		}
	}
}

func TestDriverSuspectsSilentMember(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	dc := newDriverCluster(t, Config{
		Mode:         SuspectPing,
		PingInterval: 10 * time.Millisecond,
		SuspectAfter: 60 * time.Millisecond,
	}, names...)
	for _, n := range names {
		dc.drivers[n].Join("g", names)
	}
	// Wait for liveness to settle, then silence n3.
	time.Sleep(50 * time.Millisecond)
	dc.net.Partition([]netsim.Addr{"n1", "n2"}, []netsim.Addr{"n3"})
	deadline := time.Now().Add(10 * time.Second)
	for {
		v1, v2 := dc.lastView("n1"), dc.lastView("n2")
		if reflect.DeepEqual(v1.Members, []string{"n1", "n2"}) && reflect.DeepEqual(v2.Members, []string{"n1", "n2"}) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no reconfiguration: n1=%+v n2=%+v", v1, v2)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// soloDriver runs one driver over a single-member group "g", so every
// multicast is delivered in its own step, in the order it was submitted.
func soloDriver(t *testing.T, onDeliver func(Deliver)) *Driver {
	t.Helper()
	d, err := NewDriver(DriverConfig{
		Machine:   New(Config{Self: "solo", Mode: SuspectPing, SuspectAfter: time.Hour}),
		Send:      func(to, kind string, payload []byte) {},
		OnDeliver: onDeliver,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	d.Join("g", []string{"solo"})
	return d
}

// TestDriverProcessesInOrder: the loop steps inputs in submission order,
// with ticks interleaved and a backlog taken in swaps.
func TestDriverProcessesInOrder(t *testing.T) {
	var mu sync.Mutex
	var got []string
	d := soloDriver(t, func(del Deliver) {
		mu.Lock()
		got = append(got, string(del.Payload))
		mu.Unlock()
	})
	const n = 500
	for i := 0; i < n; i++ {
		d.Multicast("g", Reliable, []byte(fmt.Sprint(i)))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		k := len(got)
		mu.Unlock()
		if k == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d delivered", k, n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, p := range got {
		if p != fmt.Sprint(i) {
			t.Fatalf("delivery %d = %q, want %q", i, p, fmt.Sprint(i))
		}
	}
}

// TestDriverCloseStopsProcessing: Close lets the step in progress finish,
// steps nothing queued behind it or submitted after it, and is idempotent.
func TestDriverCloseStopsProcessing(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var got []string
	d := soloDriver(t, func(del Deliver) {
		mu.Lock()
		got = append(got, string(del.Payload))
		mu.Unlock()
		if string(del.Payload) == "first" {
			close(entered)
			<-release
		}
	})
	d.Multicast("g", Reliable, []byte("first"))
	d.Multicast("g", Reliable, []byte("queued"))
	<-entered
	closed := make(chan struct{})
	go func() { d.Close(); close(closed) }()
	for !d.closed.Load() {
		time.Sleep(time.Millisecond)
	}
	d.Multicast("g", Reliable, []byte("after-close"))
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the step in progress")
	}
	d.Close() // idempotent: returns at once
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(got, []string{"first"}) {
		t.Fatalf("delivered %v, want only the step in progress at Close", got)
	}
}

func TestDriverValidation(t *testing.T) {
	if _, err := NewDriver(DriverConfig{}); err == nil {
		t.Fatal("driver without machine accepted")
	}
	if _, err := NewDriver(DriverConfig{Machine: New(Config{Self: "x"})}); err == nil {
		t.Fatal("driver without send accepted")
	}
}
