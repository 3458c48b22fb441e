package failsignal

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/codec"
	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
	"fsnewtop/transport"
	"fsnewtop/transport/netsim"
	"fsnewtop/transport/tcpnet"
)

// syncLinkMeter counts the bytes a pair puts on its synchronous link.
type syncLinkMeter struct {
	transport.Transport
	bytes atomic.Int64
}

// newSyncLinkMeter wraps tr in a meter and returns the meter and the
// transport to hand the stack: one that takes a payload in pieces exactly
// when tr does, so a stack over the meter sends in the form it would send
// over tr.
func newSyncLinkMeter(tr transport.Transport) (*syncLinkMeter, transport.Transport) {
	m := &syncLinkMeter{Transport: tr}
	if gs, ok := tr.(transport.GatherSender); ok {
		return m, gatherLinkMeter{m, gs}
	}
	return m, m
}

func (m *syncLinkMeter) Send(from, to transport.Addr, kind string, payload []byte) error {
	m.count(kind, len(payload))
	return m.Transport.Send(from, to, kind, payload)
}

// gatherLinkMeter is a syncLinkMeter over a transport that takes a
// payload in pieces; it passes them on.
type gatherLinkMeter struct {
	*syncLinkMeter
	gs transport.GatherSender
}

func (m gatherLinkMeter) SendGather(from, to transport.Addr, kind string, g transport.Gather) error {
	m.count(kind, g.Len())
	return m.gs.SendGather(from, to, kind, g)
}

func (m *syncLinkMeter) count(kind string, n int) {
	if kind == MsgFwd || kind == MsgSingle || kind == MsgRelay {
		m.bytes.Add(int64(n))
	}
}

// BenchmarkPairRound8K is the deterministic fence on one pair's bytes path:
// one 8 KiB request ordered, forwarded, executed by both replicas, compared,
// counter-signed and accepted by a receiver, one round at a time over
// netsim. B/op and allocs/op cover all three nodes; synclink-B/op is what
// the round put on the leader↔follower link: the forward carries the
// request once (the t1 = 0 relay a second time when it wins its race with
// the forward) and the two candidates a digest each. The meter takes a
// payload in pieces only over a transport that does, so over netsim the
// pair sends what it sends over netsim in a cluster: the forward is
// fwdPayload.marshal. Whole-output compare made it 24,984 synclink-B,
// 304,437 B and 91 allocs per round; it reads 16,758, ~66,700 and 31 on a
// 2-vCPU host with go1.24 (~66,800 and 34 while the meter took pieces over
// netsim and the forward went out in gather form; ~96,400 and 33 while
// each output was encoded and then copied twice more into its wire form,
// the client's request likewise; 53 allocs while names and destination
// lists were decoded as copies).
// This rig sends a contiguous request and its echo machine copies the
// request into its reply, so carrying payloads by reference left its
// figures where they were; TestPairRoundBytes8K runs the rig as the FS
// stack drives a pair, payloads by reference end to end. Run with
// -benchtime=1x as a smoke test, -benchtime=2000x for the figures.
func BenchmarkPairRound8K(b *testing.B) {
	fabric := netsim.New(clock.NewReal())
	defer fabric.Close()
	rig := newPairRoundRig(b, fabric, false)
	before := rig.meter.bytes.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.round()
	}
	b.StopTimer()
	rig.settle()
	b.ReportMetric(float64(rig.meter.bytes.Load()-before)/float64(b.N), "synclink-B/op")
}

// TestPairRoundBytes8K holds BenchmarkPairRound8K's rig, driven as the FS
// stack drives a pair — the request's payload in gather form, as
// fsnewtop's multicast request carries it, and a machine that carries it
// on by reference into its reply, as group's delivery does — to its bytes
// per round, counted by the runtime over 500 rounds. Over tcpnet every
// message goes out in pieces, so a round allocates the request, the five
// frames the nodes receive and ~7 kB of small objects: ~68–71 kB (a
// sixth frame, the follower's relay, lands in some rounds; the budget
// allows it in every one), where encoding every payload into each message
// that carried it took ~125 kB.
// netsim takes no pieces: the request, the forward and each half's reply
// are flattened once each, ~49 kB, where it took ~66.5 kB. Over netsim the
// sync link carries the forward, the relay and two digests: 16,774 B a
// round; over tcpnet the relay loses its race more often.
func TestPairRoundBytes8K(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, c := range []struct {
		name   string
		budget float64 // bytes allocated per round
		open   func(t *testing.T) transport.Transport
	}{
		{"netsim", 51_000, func(t *testing.T) transport.Transport {
			n := netsim.New(clock.NewReal())
			t.Cleanup(n.Close)
			return n
		}},
		{"tcpnet", 78_000, func(t *testing.T) transport.Transport {
			tr, err := tcpnet.New(tcpnet.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(tr.Close)
			return tr
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rig := newPairRoundRig(t, c.open(t), true)
			const rounds = 500
			sync0 := rig.meter.bytes.Load()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				rig.round()
			}
			rig.settle()
			runtime.ReadMemStats(&after)
			perRound := float64(after.TotalAlloc-before.TotalAlloc) / rounds
			syncPer := float64(rig.meter.bytes.Load()-sync0) / rounds
			t.Logf("%.0f B allocated and %.0f synclink-B per round", perRound, syncPer)
			if perRound > c.budget {
				t.Errorf("%.0f B allocated per 8 KiB pair round; the budget is %.0f", perRound, c.budget)
			}
			if syncPer > 16_800 {
				t.Errorf("%.0f synclink-B per round; the forward, the relay and two digests take 16,774", syncPer)
			}
		})
	}
}

// pairRoundRig is one pair over a transport, with a client that submits
// 8 KiB requests and a receiver that accepts the double-signed replies.
// The pair runs the echo machine on contiguous requests, or with gather
// set bodyMachine on requests sent in gather form.
type pairRoundRig struct {
	meter  *syncLinkMeter
	round  func() // submits one request and waits for its reply
	settle func() // waits for every message sent to be delivered
}

func newPairRoundRig(tb testing.TB, tr transport.Transport, gather bool) *pairRoundRig {
	clk := clock.NewReal()
	meter, net := newSyncLinkMeter(tr)
	dir, keys := NewDirectory(), sig.NewDirectoryCache(0) // no memo: every check is a real one

	got := make(chan struct{}, 1)
	rc := NewReceiver(dir, keys, func(string, sm.Output) { got <- struct{}{} }, nil)
	dir.RegisterPlain("app", "app")
	net.Register("app", rc.Handle)
	newMachine := func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) }
	if gather {
		newMachine = func() sm.Machine { return bodyMachine{} }
	}
	pair, err := NewPair(PairConfig{
		Name:       "p",
		NewMachine: newMachine,
		Net:        net, Clock: clk, Dir: dir, Keys: keys,
		Delta: time.Second, LocalName: "app",
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(pair.Close)
	signer := sig.NewHMACSigner("client", []byte("bench-client"))
	if err := keys.RegisterSigner(signer); err != nil {
		tb.Fatal(err)
	}
	dir.RegisterPlain("client", "client")
	net.Register("client", func(transport.Message) {})
	client := NewClient("client", "client", signer, net, dir)

	rig := &pairRoundRig{meter: meter}
	rig.round = func() {
		body := make([]byte, 8<<10)
		var err error
		if gather {
			_, err = client.SendSeq("p", "req", nil, codec.NewGather(nil, []codec.Region{{Off: 0, Src: body}}))
		} else {
			err = client.Send("p", "req", body)
		}
		if err != nil {
			tb.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			tb.Fatalf("no double-signed output (pair failed: %v)", pair.Failed())
		}
	}
	// The round is over when the first copy is accepted; let the second
	// replica's copy land so it is not billed to the next round.
	rig.settle = func() {
		stats := func() transport.Stats { st, _ := transport.GetStats(tr); return st }
		for want := stats().Sent; stats().Delivered < want; {
			time.Sleep(50 * time.Microsecond)
		}
	}
	rig.round() // first-use allocations are not a round's cost
	rig.settle()
	return rig
}
