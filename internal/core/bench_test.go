package failsignal

import (
	"sync/atomic"
	"testing"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
	"fsnewtop/transport"
	"fsnewtop/transport/netsim"
)

// syncLinkMeter counts the bytes a pair puts on its synchronous link.
type syncLinkMeter struct {
	transport.Transport
	bytes atomic.Int64
}

func (m *syncLinkMeter) Send(from, to transport.Addr, kind string, payload []byte) error {
	if kind == MsgFwd || kind == MsgSingle || kind == MsgRelay {
		m.bytes.Add(int64(len(payload)))
	}
	return m.Transport.Send(from, to, kind, payload)
}

// BenchmarkPairRound8K is the deterministic fence on one pair's bytes path:
// one 8 KiB request ordered, forwarded, executed by both replicas, compared,
// counter-signed and accepted by a receiver, one round at a time over
// netsim. B/op and allocs/op cover all three nodes; synclink-B/op is what
// the round put on the leader↔follower link: the forward carries the
// request once (the t1 = 0 relay a second time when it wins its race with
// the forward) and the two candidates a digest each. Whole-output compare
// made it 24,984 synclink-B, 304,437 B and 91 allocs per round where this
// reads 8,490, 97,740 and 63. Run with -benchtime=1x as a smoke test,
// -benchtime=2000x for the figures.
func BenchmarkPairRound8K(b *testing.B) {
	clk := clock.NewReal()
	fabric := netsim.New(clk)
	defer fabric.Close()
	net := &syncLinkMeter{Transport: fabric}
	dir, keys := NewDirectory(), sig.NewDirectoryCache(0) // no memo: every check is a real one

	got := make(chan struct{}, 1)
	rc := NewReceiver(dir, keys, func(string, sm.Output) { got <- struct{}{} }, nil)
	dir.RegisterPlain("app", "app")
	net.Register("app", rc.Handle)
	pair, err := NewPair(PairConfig{
		Name:       "p",
		NewMachine: func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) },
		Net:        net, Clock: clk, Dir: dir, Keys: keys,
		Delta: time.Second, LocalName: "app",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer pair.Close()
	signer := sig.NewHMACSigner("client", []byte("bench-client"))
	if err := keys.RegisterSigner(signer); err != nil {
		b.Fatal(err)
	}
	dir.RegisterPlain("client", "client")
	net.Register("client", func(transport.Message) {})
	client := NewClient("client", "client", signer, net, dir)

	round := func() {
		if err := client.Send("p", "req", make([]byte, 8<<10)); err != nil {
			b.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			b.Fatalf("no double-signed output (pair failed: %v)", pair.Failed())
		}
	}
	round() // first-use allocations are not a round's cost
	// The round is over when the first copy is accepted; let the second
	// replica's copy land so it is not billed to the next round.
	settle := func() {
		for want := fabric.Stats().Sent; fabric.Stats().Delivered < want; {
			time.Sleep(50 * time.Microsecond)
		}
	}
	settle()
	before := net.bytes.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	settle()
	b.ReportMetric(float64(net.bytes.Load()-before)/float64(b.N), "synclink-B/op")
}
