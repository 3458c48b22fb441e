package main

import (
	"testing"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/transport"
	"fsnewtop/transport/netsim"
	"fsnewtop/transport/tcpnet"
	"fsnewtop/transport/transporttest"
)

// The decorator must be invisible to the stack: the transport contract
// holds through it on both backends.

func TestDecoratedNetsimConforms(t *testing.T) {
	transporttest.Run(t, func(t *testing.T) *transporttest.Deployment {
		n := netsim.New(clock.NewReal())
		tr, _ := trace(n, time.Now())
		return &transporttest.Deployment{
			Endpoint: func(int) transport.Transport { return tr },
			Close:    tr.Close,
		}
	})
}

func TestDecoratedTCPConforms(t *testing.T) {
	transporttest.Run(t, func(t *testing.T) *transporttest.Deployment {
		book := tcpnet.NewAddrBook()
		eps := make([]transport.Transport, 4)
		for i := range eps {
			tp, err := tcpnet.New(tcpnet.Config{Book: book})
			if err != nil {
				t.Fatalf("tcpnet.New: %v", err)
			}
			eps[i], _ = trace(tp, time.Now())
		}
		return &transporttest.Deployment{
			Endpoint: func(i int) transport.Transport { return eps[i%len(eps)] },
			Close: func() {
				for _, tp := range eps {
					tp.Close()
				}
			},
		}
	})
}

// bare has none of the optional capabilities.
type bare struct{ transport.Transport }

// TestDecoratorForwardsCapabilities: the decorated transport offers a
// capability exactly when the backend does, and what it offers is the
// backend's own.
func TestDecoratorForwardsCapabilities(t *testing.T) {
	sim := netsim.New(clock.NewReal())
	defer sim.Close()
	tcp, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	for _, tc := range []struct {
		name                  string
		inner                 transport.Transport
		faults, stats, frames bool
	}{
		{"netsim", sim, true, true, true},
		{"tcpnet", tcp, false, true, true},
		{"bare", bare{sim}, false, false, false},
	} {
		tr, _ := trace(tc.inner, time.Now())
		if _, ok := tr.(transport.FaultInjector); ok != tc.faults {
			t.Errorf("%s: FaultInjector offered = %v, want %v", tc.name, ok, tc.faults)
		}
		if _, ok := tr.(transport.StatsSource); ok != tc.stats {
			t.Errorf("%s: StatsSource offered = %v, want %v", tc.name, ok, tc.stats)
		}
		if _, ok := tr.(frameCounter); ok != tc.frames {
			t.Errorf("%s: FramesSent offered = %v, want %v", tc.name, ok, tc.frames)
		}
	}

	// Forwarded means the backend's own numbers and the backend's own
	// partitions, and the decorator's counts agree with the backend's.
	tr, tc := trace(sim, time.Now())
	got := make(chan transport.Message, 4)
	tr.Register("cap/a", func(transport.Message) {})
	tr.Register("cap/b", func(m transport.Message) { got <- m })
	for i := 0; i < 3; i++ {
		if err := tr.Send("cap/a", "cap/b", "cap.kind", []byte("12345")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("message not delivered through the decorator")
		}
	}
	stats, ok := transport.GetStats(tr)
	if !ok || stats != sim.Stats() || stats.Sent != 3 || stats.Bytes != 15 {
		t.Errorf("Stats through the decorator = %+v (ok %v), backend %+v", stats, ok, sim.Stats())
	}
	if frames := tr.(frameCounter).FramesSent(); frames != sim.FramesSent() || frames != 3 {
		t.Errorf("FramesSent through the decorator = %d, backend %d, want 3", frames, sim.FramesSent())
	}
	if kt := tc.totals()["cap.kind"]; kt.Sends != 3 || kt.SendBytes != 15 || kt.Handled != 3 {
		t.Errorf("decorator counted %+v, want 3 sends of 15 bytes and 3 handler runs", kt)
	}

	if !transport.Block(tr, "cap/a", "cap/b") {
		t.Fatal("Block through the decorator was refused")
	}
	if err := tr.Send("cap/a", "cap/b", "cap.kind", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		t.Error("a message crossed a partition set through the decorator")
	case <-time.After(50 * time.Millisecond):
	}
	if sim.Stats().Blocked != 1 {
		t.Errorf("backend counted %d blocked messages, want 1", sim.Stats().Blocked)
	}
}
