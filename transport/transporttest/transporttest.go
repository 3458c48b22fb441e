// Package transporttest is the transport-plane conformance suite: the
// executable specification of the semantics every backend must provide so
// that the protocol stack above (orb, core, group, newtop, fsnewtop) runs
// identically over all of them. Each backend runs the suite from its own
// test file; new backends get the whole contract for one factory func.
//
// The pinned semantics:
//
//   - delivery fidelity: From, To, Kind and Payload arrive intact;
//   - per-link FIFO: messages of one (From,To) direction are delivered in
//     send order (the Order protocol's leader→follower assumption);
//   - ownership: a delivered payload is the handler's to keep — decoded
//     messages alias it for as long as the protocol holds them — and no
//     later traffic may touch its bytes;
//   - loud mis-wiring: sending to an unresolvable address fails with
//     transport.ErrUnknownAddr, including after Deregister;
//   - close semantics: Send after Close fails with transport.ErrClosed;
//     Close is idempotent;
//   - control/data-plane concurrency: Register and Send race freely (the
//     suite is expected to run under -race);
//   - gather sends: a payload sent in pieces (transport.SendGather) arrives
//     as one payload equal to the pieces in order, in per-link order with
//     plain sends; the pieces are never written; a payload sent to several
//     destinations is flattened at most once, and only by a backend that
//     takes no pieces.
package transporttest

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fsnewtop/internal/codec"
	"fsnewtop/transport"
)

// Deployment is one backend deployment under test.
type Deployment struct {
	// Endpoint returns the transport on which node i registers and sends.
	// Backends where one object serves every address (netsim) return the
	// same value for all i; per-process backends (tcpnet) return distinct
	// instances wired to reach each other. The suite uses i in [0, 4).
	Endpoint func(i int) transport.Transport
	// Close tears the deployment down. May be nil.
	Close func()
}

// waitTimeout bounds every delivery wait. Generous: CI machines stall.
const waitTimeout = 10 * time.Second

// Run executes the conformance suite against deployments built by factory.
// Each subtest gets a fresh deployment.
func Run(t *testing.T, factory func(t *testing.T) *Deployment) {
	sub := func(name string, f func(t *testing.T, d *Deployment)) {
		t.Run(name, func(t *testing.T) {
			d := factory(t)
			if d.Close != nil {
				defer d.Close()
			}
			f(t, d)
		})
	}
	sub("DeliveryFidelity", testDeliveryFidelity)
	sub("PerLinkFIFO", testPerLinkFIFO)
	sub("BurstFIFOFidelity", testBurstFIFOFidelity)
	sub("RetainedPayloads", testRetainedPayloads)
	sub("UnknownAddr", testUnknownAddr)
	sub("DeregisterThenSend", testDeregisterThenSend)
	sub("CloseSemantics", testCloseSemantics)
	sub("ConcurrentRegisterSend", testConcurrentRegisterSend)
	sub("GatherSend", testGatherSend)
}

// testGatherSend sends one gather encoding — own bytes around an 8 KiB and
// a 100-byte region — to three destinations, each followed on its link by
// a plain message.
func testGatherSend(t *testing.T, d *Deployment) {
	big, small := bytes.Repeat([]byte("0123456789abcdef"), 512), bytes.Repeat([]byte("s"), 100)
	encode := func(w *codec.Writer) {
		w.String("head")
		w.Body32(big)
		w.U64(42)
		w.Body32(small)
		w.String("tail")
	}
	flat := codec.NewWriter(0)
	encode(flat)
	gw := codec.NewGatherWriter(0)
	encode(gw)
	_, g := gw.Encoding()
	pieces := g.AppendPieces(nil)
	before := make([][]byte, len(pieces))
	for i, p := range pieces {
		before[i] = bytes.Clone(p)
	}
	if !bytes.Equal(bytes.Join(pieces, nil), flat.Bytes()) {
		t.Fatal("the pieces do not make up the encoding")
	}

	const k = 3
	sender := d.Endpoint(0)
	sender.Register("conf/gather-src", func(transport.Message) {})
	type rx struct {
		to      transport.Addr
		payload []byte
	}
	got := make(chan rx, 2*k)
	for i := 1; i <= k; i++ {
		to := transport.Addr(fmt.Sprintf("conf/gather-dst%d", i))
		d.Endpoint(i).Register(to, func(m transport.Message) { got <- rx{m.To, m.Payload} })
	}
	stats0, counted := transport.GetStats(sender)
	flattens := codec.Flattens()
	for i := 1; i <= k; i++ {
		to := transport.Addr(fmt.Sprintf("conf/gather-dst%d", i))
		if err := transport.SendGather(sender, "conf/gather-src", to, "gather", g); err != nil {
			t.Fatalf("SendGather: %v", err)
		}
		if err := sender.Send("conf/gather-src", to, "plain", []byte("after")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	next := make(map[transport.Addr]int)
	for n := 0; n < 2*k; n++ {
		select {
		case m := <-got:
			switch next[m.to] {
			case 0:
				if !bytes.Equal(m.payload, flat.Bytes()) {
					t.Fatalf("%s: the gather payload arrived as %d bytes unequal to its pieces", m.to, len(m.payload))
				}
			case 1:
				if string(m.payload) != "after" {
					t.Fatalf("%s: the plain message overtook the gather one", m.to)
				}
			default:
				t.Fatalf("%s: more than two messages", m.to)
			}
			next[m.to]++
		case <-time.After(waitTimeout):
			t.Fatalf("%d of %d messages delivered", n, 2*k)
		}
	}
	for i, p := range pieces {
		if !bytes.Equal(p, before[i]) {
			t.Fatalf("piece %d was written", i)
		}
	}
	_, pieceWise := sender.(transport.GatherSender)
	switch n := codec.Flattens() - flattens; {
	case pieceWise && n != 0:
		t.Fatalf("a backend that takes pieces flattened %d times", n)
	case n > 1:
		t.Fatalf("flattened %d times for %d destinations", n, k)
	}
	if counted {
		stats, _ := transport.GetStats(sender)
		if want := uint64(k * (g.Len() + len("after"))); stats.Bytes-stats0.Bytes != want {
			t.Fatalf("Stats().Bytes grew by %d, want %d (the flattened length)", stats.Bytes-stats0.Bytes, want)
		}
	}
}

func testDeliveryFidelity(t *testing.T, d *Deployment) {
	sender, receiver := d.Endpoint(0), d.Endpoint(1)
	got := make(chan transport.Message, 1)
	receiver.Register("conf/b", func(m transport.Message) { got <- m })
	// The sender side also registers so backends that resolve From (none
	// today) and symmetric deployments both work.
	sender.Register("conf/a", func(transport.Message) {})

	payload := []byte("payload-bytes")
	if err := sender.Send("conf/a", "conf/b", "conf.kind", payload); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case m := <-got:
		if m.From != "conf/a" || m.To != "conf/b" || m.Kind != "conf.kind" || string(m.Payload) != string(payload) {
			t.Fatalf("delivered message corrupted: %+v", m)
		}
	case <-time.After(waitTimeout):
		t.Fatal("message not delivered")
	}
}

func testPerLinkFIFO(t *testing.T, d *Deployment) {
	const n = 500
	sender, receiver := d.Endpoint(0), d.Endpoint(1)
	seqs := make(chan int, n)
	receiver.Register("conf/fifo-dst", func(m transport.Message) {
		seqs <- int(m.Payload[0])<<8 | int(m.Payload[1])
	})
	sender.Register("conf/fifo-src", func(transport.Message) {})
	for i := 0; i < n; i++ {
		if err := sender.Send("conf/fifo-src", "conf/fifo-dst", "seq", []byte{byte(i >> 8), byte(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	deadline := time.After(waitTimeout)
	for want := 0; want < n; want++ {
		select {
		case got := <-seqs:
			if got != want {
				t.Fatalf("FIFO violated: delivered %d, want %d", got, want)
			}
		case <-deadline:
			t.Fatalf("timed out at seq %d/%d", want, n)
		}
	}
}

// testBurstFIFOFidelity hammers several interleaved links with dense
// back-to-back bursts of mixed-size payloads — the FS protocol's fan-out
// shape, which drains a writer's queue many frames at a time — and
// requires per-link FIFO and byte-perfect fidelity to survive it.
func testBurstFIFOFidelity(t *testing.T, d *Deployment) {
	const (
		links = 3
		n     = 300
	)
	sender, receiver := d.Endpoint(0), d.Endpoint(1)
	type rec struct {
		link, seq int
		size      int
	}
	got := make(chan rec, links*n)
	for l := 0; l < links; l++ {
		l := l
		receiver.Register(transport.Addr(fmt.Sprintf("conf/burst-dst-%d", l)), func(m transport.Message) {
			if len(m.Payload) < 4 {
				t.Errorf("link %d: runt payload %v", l, m.Payload)
				return
			}
			seq := int(m.Payload[0])<<8 | int(m.Payload[1])
			size := int(m.Payload[2])<<8 | int(m.Payload[3])
			if size != len(m.Payload) {
				t.Errorf("link %d seq %d: payload says %d bytes, got %d", l, seq, size, len(m.Payload))
			}
			for i := 4; i < len(m.Payload); i++ {
				if m.Payload[i] != byte(seq) {
					t.Errorf("link %d seq %d: filler corrupted at %d", l, seq, i)
					break
				}
			}
			got <- rec{link: l, seq: seq, size: len(m.Payload)}
		})
	}
	for l := 0; l < links; l++ {
		sender.Register(transport.Addr(fmt.Sprintf("conf/burst-src-%d", l)), func(transport.Message) {})
	}

	// Sizes cycle from tiny through a payload far larger than a socket
	// write usually takes at once.
	sizes := []int{4, 16, 900, 4, 60000, 4, 2048}
	for seq := 0; seq < n; seq++ {
		for l := 0; l < links; l++ {
			size := sizes[(seq+l)%len(sizes)]
			p := make([]byte, size)
			p[0], p[1] = byte(seq>>8), byte(seq)
			p[2], p[3] = byte(size>>8), byte(size)
			for i := 4; i < size; i++ {
				p[i] = byte(seq)
			}
			from := transport.Addr(fmt.Sprintf("conf/burst-src-%d", l))
			to := transport.Addr(fmt.Sprintf("conf/burst-dst-%d", l))
			if err := sender.Send(from, to, "burst", p); err != nil {
				t.Fatalf("Send link %d seq %d: %v", l, seq, err)
			}
		}
	}

	want := make([]int, links) // next expected seq per link
	deadline := time.After(waitTimeout)
	for received := 0; received < links*n; received++ {
		select {
		case r := <-got:
			if r.seq != want[r.link] {
				t.Fatalf("link %d: delivered seq %d (size %d), want %d", r.link, r.seq, r.size, want[r.link])
			}
			want[r.link]++
		case <-deadline:
			t.Fatalf("timed out after %d of %d deliveries (per-link progress %v)", received, links*n, want)
		}
	}
}

// testRetainedPayloads pins the receive half of the ownership rule the
// whole stack decodes in place on: a handler may keep every payload it is
// handed. It retains 10,000 of them, of mixed sizes, while the traffic that
// follows keeps arriving, and then checks every byte of every one. A
// backend that recycled a read buffer, or decoded a later frame over an
// earlier one, fails it.
func testRetainedPayloads(t *testing.T, d *Deployment) {
	const n = 10000
	fill := func(i int) []byte {
		b := make([]byte, 1+(i*37)%2048) // a fresh slice per Send: Send owns it
		for j := range b {
			b[j] = byte(i + j)
		}
		return b
	}
	sender, receiver := d.Endpoint(0), d.Endpoint(1)
	var mu sync.Mutex
	kept := make([][]byte, 0, n)
	done := make(chan struct{})
	receiver.Register("conf/keep-dst", func(m transport.Message) {
		mu.Lock()
		kept = append(kept, m.Payload)
		full := len(kept) == n
		mu.Unlock()
		if full {
			close(done)
		}
	})
	sender.Register("conf/keep-src", func(transport.Message) {})
	for i := 0; i < n; i++ {
		if err := sender.Send("conf/keep-src", "conf/keep-dst", "keep", fill(i)); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	select {
	case <-done:
	case <-time.After(waitTimeout):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("%d of %d payloads delivered", len(kept), n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, got := range kept {
		if want := fill(i); !bytes.Equal(got, want) {
			t.Fatalf("retained payload %d (%d bytes) changed after delivery", i, len(want))
		}
	}
}

func testUnknownAddr(t *testing.T, d *Deployment) {
	ep := d.Endpoint(0)
	ep.Register("conf/known", func(transport.Message) {})
	err := ep.Send("conf/known", "conf/never-registered", "k", nil)
	if !errors.Is(err, transport.ErrUnknownAddr) {
		t.Fatalf("Send to unregistered addr: err = %v, want transport.ErrUnknownAddr", err)
	}
}

func testDeregisterThenSend(t *testing.T, d *Deployment) {
	sender, receiver := d.Endpoint(0), d.Endpoint(1)
	got := make(chan transport.Message, 1)
	receiver.Register("conf/gone", func(m transport.Message) { got <- m })
	sender.Register("conf/src", func(transport.Message) {})
	if err := sender.Send("conf/src", "conf/gone", "k", []byte("x")); err != nil {
		t.Fatalf("Send while registered: %v", err)
	}
	select {
	case <-got:
	case <-time.After(waitTimeout):
		t.Fatal("pre-deregister message not delivered")
	}

	receiver.Deregister("conf/gone")
	err := sender.Send("conf/src", "conf/gone", "k", []byte("y"))
	if !errors.Is(err, transport.ErrUnknownAddr) {
		t.Fatalf("Send after Deregister: err = %v, want transport.ErrUnknownAddr", err)
	}
	select {
	case m := <-got:
		t.Fatalf("message delivered to deregistered address: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

func testCloseSemantics(t *testing.T, d *Deployment) {
	sender, receiver := d.Endpoint(0), d.Endpoint(1)
	receiver.Register("conf/dst", func(transport.Message) {})
	sender.Register("conf/src", func(transport.Message) {})
	if err := sender.Send("conf/src", "conf/dst", "k", nil); err != nil {
		t.Fatalf("Send before close: %v", err)
	}

	sender.Close()
	if err := sender.Send("conf/src", "conf/dst", "k", nil); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Send after Close: err = %v, want transport.ErrClosed", err)
	}
	sender.Close() // idempotent: must not panic or deadlock
}

func testConcurrentRegisterSend(t *testing.T, d *Deployment) {
	const (
		registrars = 4
		senders    = 4
		perWorker  = 200
	)
	receiver := d.Endpoint(1)
	var delivered sync.WaitGroup
	delivered.Add(senders * perWorker)
	receiver.Register("conf/hot", func(transport.Message) { delivered.Done() })

	var wg sync.WaitGroup
	for g := 0; g < registrars; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := d.Endpoint(g % 4)
			for i := 0; i < perWorker; i++ {
				addr := transport.Addr(fmt.Sprintf("conf/churn-%d-%d", g, i))
				ep.Register(addr, func(transport.Message) {})
				if i%2 == 1 {
					ep.Deregister(addr)
				}
			}
		}()
	}
	for g := 0; g < senders; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := d.Endpoint(g % 4)
			src := transport.Addr(fmt.Sprintf("conf/sender-%d", g))
			ep.Register(src, func(transport.Message) {})
			for i := 0; i < perWorker; i++ {
				if err := ep.Send(src, "conf/hot", "k", []byte{byte(i)}); err != nil {
					t.Errorf("concurrent Send: %v", err)
					delivered.Done()
				}
			}
		}()
	}
	wg.Wait()

	done := make(chan struct{})
	go func() { delivered.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(waitTimeout):
		t.Fatal("not all concurrent sends were delivered")
	}
}
