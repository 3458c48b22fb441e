package failsignal

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
	"fsnewtop/transport"
)

// countingVerifier counts the signature checks that reach it.
type countingVerifier struct {
	sig.Verifier
	n atomic.Int64
}

func (v *countingVerifier) Verify(id sig.ID, data, s []byte) error {
	v.n.Add(1)
	return v.Verifier.Verify(id, data, s)
}

// fakeFS is an FS process reduced to its two Compare signers: enough to
// mint the double-signed copies a real pair would send.
type fakeFS struct {
	name string
	l, f sig.Signer
}

func (e *env) addFakeFS(name string) *fakeFS {
	s := &fakeFS{
		name: name,
		l:    sig.NewHMACSigner(LeaderID(name), []byte("k-l-"+name)),
		f:    sig.NewHMACSigner(FollowerID(name), []byte("k-f-"+name)),
	}
	for _, signer := range []sig.Signer{s.l, s.f} {
		if err := e.keys.RegisterSigner(signer); err != nil {
			e.t.Fatal(err)
		}
	}
	e.dir.RegisterFS(name, LeaderAddr(name), FollowerAddr(name), LeaderID(name), FollowerID(name))
	e.net.Register(LeaderAddr(name), func(transport.Message) {})
	e.net.Register(FollowerAddr(name), func(transport.Message) {})
	return s
}

// copies returns the two valid wire copies of one signed body: the one the
// source's leader dispatches (follower-signed, leader-counter-signed) and
// the one its follower dispatches. Same key, different bytes. full is the
// output encoding a digest body pins; with none the body travels bare, as a
// fail-signal does.
func (s *fakeFS) copies(t *testing.T, body OutputBody, full []byte) (viaL, viaF []byte) {
	t.Helper()
	bb := body.Marshal()
	mint := func(first, second sig.Signer) []byte {
		env, err := sig.SignEnvelope(first, bb)
		if err != nil {
			t.Fatal(err)
		}
		dbl, err := sig.CounterSign(second, env)
		if err != nil {
			t.Fatal(err)
		}
		if full == nil {
			return encodeFSPayload(dbl)
		}
		return encodeFSDigestPayload(dbl, full)
	}
	return mint(s.f, s.l), mint(s.l, s.f)
}

func (s *fakeFS) output(t *testing.T, seq uint64, payload string) (viaL, viaF []byte) {
	full := sm.MarshalOutput(sm.Output{Kind: "k", To: []string{"x"}, Payload: []byte(payload)})
	d := sig.Digest(full)
	return s.copies(t, OutputBody{Source: s.name, Seq: seq, DigestOnly: true, Output: d[:]}, full)
}

// forge keeps a copy's identity and bytes and breaks the last byte of its
// counter-signature.
func forge(raw []byte) []byte {
	bad := append([]byte(nil), raw...)
	p, err := decodeNewPayload(raw)
	if err != nil {
		panic(err)
	}
	bad[len(p.dbl.Marshal())] ^= 0xFF // the tag byte, then the double
	return bad
}

func newMsg(from transport.Addr, payload []byte) transport.Message {
	return transport.Message{From: from, Kind: MsgNew, Payload: payload}
}

// quietPair builds a pair whose machine emits nothing, so the only checks
// its verifiers see are input admissions. With holdRelays the leader
// swallows every fs.relay and δ is an hour, so an input pooled at the
// follower stays pooled until the test forwards it.
func quietPair(t *testing.T, e *env, holdRelays bool) (*Pair, *countingVerifier, *countingVerifier, chan string) {
	t.Helper()
	cfg := e.pairConfig("p", func() sm.Machine { return silentMachine{} })
	if holdRelays {
		cfg.Delta = time.Hour
	}
	vs := []*countingVerifier{{Verifier: e.keys}, {Verifier: e.keys}}
	next := 0
	cfg.NewVerifier = func() sig.Verifier { next++; return vs[next-1] }
	failCh := make(chan string, 4)
	cfg.OnFailSignal = func(reason string) { failCh <- reason }
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pair.Close)
	if holdRelays {
		e.net.Register(LeaderAddr("p"), func(msg transport.Message) {
			if msg.Kind != MsgRelay {
				pair.Leader.handle(msg)
			}
		})
	}
	return pair, vs[0], vs[1], failCh
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestSeqWindow covers the sliding window on its own.
func TestSeqWindow(t *testing.T) {
	var w seqWindow
	if w.known(0) || w.known(1) {
		t.Fatal("empty window knows something")
	}
	// Out-of-order admission inside the window.
	for _, s := range []uint64{5, 3, 9, 4} {
		if w.known(s) {
			t.Fatalf("%d known before it was marked", s)
		}
		w.mark(s)
	}
	for s := uint64(0); s <= 10; s++ {
		want := s == 3 || s == 4 || s == 5 || s == 9
		if w.known(s) != want {
			t.Fatalf("known(%d) = %v", s, !want)
		}
	}
	// Wrap-around: the slot of 5 is reused by 5+gateWindow and must come
	// back clean, not carry the old bit.
	w.mark(4 + gateWindow)
	if w.known(5 + gateWindow) {
		t.Fatal("slot reused after wrap-around still carries the old sequence's bit")
	}
	w.mark(5 + gateWindow)
	if !w.known(5+gateWindow) || !w.known(4+gateWindow) {
		t.Fatal("marked sequences forgotten after wrap-around")
	}
	// 9 is still inside (top-gateWindow, top]; 5 and below have fallen out
	// and count as known.
	if !w.known(9) {
		t.Fatal("9 forgotten while still inside the window")
	}
	if w.known(10) {
		t.Fatal("10 was never admitted and is still inside the window")
	}
	for _, s := range []uint64{0, 3, 5} {
		if !w.known(s) {
			t.Fatalf("%d is older than the window and must count as known", s)
		}
	}
	// Marking a stale sequence must not touch the slot a live one owns.
	w.mark(6)
	if w.known(6 + gateWindow) {
		t.Fatal("marking a stale sequence set a live sequence's bit")
	}
	// A jump of more than a window forgets every bit.
	w.mark(10 * gateWindow)
	if w.known(10*gateWindow-1) || !w.known(10*gateWindow) || !w.known(5+gateWindow) {
		t.Fatal("window wrong after a jump past its whole width")
	}
}

// TestPeekKeyMatchesDecode: the identity probed before verification is the
// identity of the input decoded after it, for every payload shape.
func TestPeekKeyMatchesDecode(t *testing.T) {
	e := newEnv(t)
	src := e.addFakeFS("src")
	client := sig.NewHMACSigner("cl", []byte("k"))
	env, _ := sig.SignEnvelope(client, ClientInput{Client: "cl", Seq: 42, Kind: "req", Body: []byte("b")}.Marshal())
	out, _ := src.output(t, 7, "x")
	fsig, _ := src.copies(t, failSignalBody("src"), nil)
	for _, c := range []struct {
		raw  []byte
		want string
	}{
		{encodeClientPayload(env), "c|cl|42"},
		{out, "f|src|7"},
		{fsig, "fsig|src"},
	} {
		k, ok := peekKey(c.raw)
		if !ok || k.String() != c.want {
			t.Fatalf("peekKey = %q, %v; want %q", k, ok, c.want)
		}
		if _, err := decodeNewPayload(c.raw); err != nil {
			t.Fatal(err)
		}
	}
	for _, raw := range [][]byte{nil, {tagFS}, encodeTickPayload(time.Now()), out[:len(out)/3], {99, 0, 0, 0, 0}} {
		if k, ok := peekKey(raw); ok {
			t.Fatalf("peekKey accepted %x as %q", raw, k)
		}
	}
}

// TestForgedCopyFirstDoesNotPoisonGate: a copy with a valid key and a bad
// signature arriving first is rejected and leaves the key unmarked, so the
// authentic copy behind it is still ordered — at the leader, at the
// follower, and at a plain receiver.
func TestForgedCopyFirstDoesNotPoisonGate(t *testing.T) {
	e := newEnv(t)
	src := e.addFakeFS("src")
	pair, _, _, _ := quietPair(t, e, false)
	viaL, viaF := src.output(t, 1, "x")

	pair.Leader.handle(newMsg(LeaderAddr("src"), forge(viaL)))
	if st := pair.Leader.Stats(); st.Rejected != 1 || st.Ordered != 0 {
		t.Fatalf("leader after forged copy: %+v", st)
	}
	pair.Leader.handle(newMsg(FollowerAddr("src"), viaF))
	if st := pair.Leader.Stats(); st.Ordered != 1 {
		t.Fatalf("leader did not order the authentic copy behind a forged one: %+v", st)
	}

	_, viaF2 := src.output(t, 2, "y")
	pair.Follower.handle(newMsg(LeaderAddr("src"), forge(viaF2)))
	if st := pair.Follower.Stats(); st.Rejected != 1 {
		t.Fatalf("follower after forged copy: %+v", st)
	}
	pair.Follower.handle(newMsg(FollowerAddr("src"), viaF2))
	// The follower pools it, relays it, and the leader orders it.
	eventually(t, "follower to order the authentic copy", func() bool { return pair.Follower.Stats().Ordered == 2 })

	sink := newAppSink()
	rc := NewReceiver(e.dir, e.keys, sink.onOutput, sink.onFail)
	rc.Handle(newMsg(LeaderAddr("src"), forge(viaL)))
	if sink.outputCount() != 0 {
		t.Fatal("receiver accepted a forged copy")
	}
	rc.Handle(newMsg(FollowerAddr("src"), viaF))
	if sink.outputCount() != 1 {
		t.Fatal("receiver dropped the authentic copy behind a forged one")
	}
}

// TestCopyBehindAuthenticNeverReachesVerifier: once the authentic copy is
// in, a later copy under the same key — forged or not — is dropped on its
// identity and costs no signature check.
func TestCopyBehindAuthenticNeverReachesVerifier(t *testing.T) {
	e := newEnv(t)
	src := e.addFakeFS("src")
	pair, lv, fv, _ := quietPair(t, e, true)
	viaL, viaF := src.output(t, 1, "x")

	pair.Follower.handle(newMsg(LeaderAddr("src"), viaL))
	if fv.n.Load() != 2 {
		t.Fatalf("follower made %d checks admitting one double-signed input, want 2", fv.n.Load())
	}
	pair.Follower.handle(newMsg(FollowerAddr("src"), forge(viaF)))
	pair.Follower.handle(newMsg(FollowerAddr("src"), viaF))
	if n, st := fv.n.Load(), pair.Follower.Stats(); n != 2 || st.Duplicates != 2 || st.Rejected != 0 {
		t.Fatalf("follower: %d checks, %+v after two copies of a pooled input", n, st)
	}

	pair.Leader.handle(newMsg(LeaderAddr("src"), viaL))
	if lv.n.Load() != 2 {
		t.Fatalf("leader made %d checks admitting one double-signed input, want 2", lv.n.Load())
	}
	pair.Leader.handle(newMsg(FollowerAddr("src"), forge(viaF)))
	pair.Leader.handle(newMsg(FollowerAddr("src"), viaF))
	if n, st := lv.n.Load(), pair.Leader.Stats(); n != 2 || st.Duplicates != 2 || st.Rejected != 0 {
		t.Fatalf("leader: %d checks, %+v after two copies of an ordered input", n, st)
	}

	rv := &countingVerifier{Verifier: e.keys}
	sink := newAppSink()
	rc := NewReceiver(e.dir, rv, sink.onOutput, sink.onFail)
	rc.Handle(newMsg(LeaderAddr("src"), viaL))
	rc.Handle(newMsg(FollowerAddr("src"), forge(viaF)))
	rc.Handle(newMsg(FollowerAddr("src"), viaF))
	if n := rv.n.Load(); n != 2 || sink.outputCount() != 1 {
		t.Fatalf("receiver: %d checks, %d outputs", n, sink.outputCount())
	}
}

// TestFwdUnderPooledKey: what the follower does when the leader's forward
// names an input the follower itself holds in the IRMP, at every size the
// digest compare is checked at. Only the identical bytes inherit the
// verification — and the content hash — the follower already paid for.
func TestFwdUnderPooledKey(t *testing.T) {
	fwd := func(raw []byte) transport.Message {
		return transport.Message{From: LeaderAddr("p"), Kind: MsgFwd, Payload: fwdPayload{Index: 0, Raw: raw}.marshal()}
	}
	// pooled is one follower holding one verified input of the given size.
	type pooled struct {
		pair       *Pair
		fv         *countingVerifier
		failCh     chan string
		viaL, viaF []byte
	}
	atEverySize := func(t *testing.T, check func(t *testing.T, p pooled)) {
		for _, size := range compareSizes {
			t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
				e := newEnv(t)
				src := e.addFakeFS("src")
				pair, _, fv, failCh := quietPair(t, e, true)
				viaL, viaF := src.output(t, 1, strings.Repeat("x", size))
				pair.Follower.handle(newMsg(LeaderAddr("src"), viaL))
				if fv.n.Load() != 2 {
					t.Fatalf("%d checks pooling one input", fv.n.Load())
				}
				check(t, pooled{pair, fv, failCh, viaL, viaF})
			})
		}
	}
	wantFail := func(t *testing.T, p pooled, prefix string) {
		t.Helper()
		select {
		case reason := <-p.failCh:
			if !strings.HasPrefix(reason, prefix) {
				t.Fatalf("reason = %q", reason)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("follower accepted substituted bytes under a key it had verified")
		}
		if p.pair.Follower.Stats().Ordered != 0 {
			t.Fatal("follower ordered the substituted bytes")
		}
	}

	t.Run("same bytes are not verified again", func(t *testing.T) {
		atEverySize(t, func(t *testing.T, p pooled) {
			hashed := sig.Digests()
			p.pair.Follower.handle(fwd(append([]byte(nil), p.viaL...))) // equal bytes, not the same slice
			if st := p.pair.Follower.Stats(); st.Ordered != 1 || p.fv.n.Load() != 2 {
				t.Fatalf("%+v, %d checks", st, p.fv.n.Load())
			}
			if n := sig.Digests() - hashed; n != 0 {
				t.Fatalf("%d content hashes spent on bytes the follower had already verified", n)
			}
		})
	})
	t.Run("the other sender's copy costs one double verify", func(t *testing.T) {
		atEverySize(t, func(t *testing.T, p pooled) {
			hashed := sig.Digests()
			p.pair.Follower.handle(fwd(p.viaF))
			if st := p.pair.Follower.Stats(); st.Ordered != 1 || p.fv.n.Load() != 4 {
				t.Fatalf("%+v, %d checks", st, p.fv.n.Load())
			}
			if sig.Digests() == hashed {
				t.Fatal("bytes never seen before were admitted without being hashed against their digest")
			}
		})
	})
	t.Run("substituted bytes with a bad signature fail-signal", func(t *testing.T) {
		atEverySize(t, func(t *testing.T, p pooled) {
			p.pair.Follower.handle(fwd(forge(p.viaF)))
			wantFail(t, p, "leader forwarded unauthenticated input")
		})
	})
	t.Run("substituted output bytes under the verified double fail-signal", func(t *testing.T) {
		atEverySize(t, func(t *testing.T, p pooled) {
			bad := append([]byte(nil), p.viaL...)
			bad[len(bad)-1] ^= 1 // the last byte of the output beside the double
			p.pair.Follower.handle(fwd(bad))
			wantFail(t, p, "undecodable ordered input from leader")
			if p.fv.n.Load() != 2 {
				t.Fatalf("%d checks: bytes that miss their digest reached the verifier", p.fv.n.Load())
			}
		})
	})
}

// TestFwdOfKnownOrStaleKeyFailSignals: the follower's gate mirrors the
// leader's, so a forward it calls known — seen before, or a whole window
// behind its source — is a leader fault.
func TestFwdOfKnownOrStaleKeyFailSignals(t *testing.T) {
	for name, second := range map[string]uint64{"known": 1 + gateWindow, "stale": 1} {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t)
			src := e.addFakeFS("src")
			pair, _, _, failCh := quietPair(t, e, false)
			for idx, seq := range []uint64{1 + gateWindow, second} {
				raw, _ := src.output(t, seq, "x")
				pair.Follower.handle(transport.Message{From: LeaderAddr("p"), Kind: MsgFwd,
					Payload: fwdPayload{Index: uint64(idx), Raw: raw}.marshal()})
			}
			select {
			case reason := <-failCh:
				if !strings.HasPrefix(reason, "leader ordered duplicate input f|src|") {
					t.Fatalf("reason = %q", reason)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("follower accepted a forward its gate calls known")
			}
		})
	}
}

// TestPooledInputOvertakenByWindowIsLoss: an input still pooled at the
// follower when its source has run a whole window past it was rightly
// dropped by the leader; the t2 deadline must treat that as loss, not as
// a leader that refuses to order.
func TestPooledInputOvertakenByWindowIsLoss(t *testing.T) {
	e := newEnv(t)
	src := e.addFakeFS("src")
	pair, _, _, failCh := quietPair(t, e, false)
	e.net.SetOneWayProfile(FollowerAddr("p"), LeaderAddr("p"), profileWithLatency(20*time.Millisecond))
	old, _ := src.output(t, 1, "old")
	pair.Follower.handle(newMsg(LeaderAddr("src"), old)) // pooled; its relay lands in 20ms
	ahead, _ := src.output(t, 1+gateWindow, "ahead")
	pair.Leader.handle(newMsg(LeaderAddr("src"), ahead))
	eventually(t, "follower to order the input that ran ahead", func() bool { return pair.Follower.Stats().Ordered == 1 })
	eventually(t, "leader to drop the relay as stale", func() bool { return pair.Leader.Stats().Duplicates == 1 })
	select {
	case reason := <-failCh:
		t.Fatalf("pair fail-signalled over an input a window old: %s", reason)
	case <-time.After(300 * time.Millisecond): // t2 = 2δ = 100ms
	}
	pair.Follower.mu.Lock()
	pooled := len(pair.Follower.irmp)
	pair.Follower.mu.Unlock()
	if pooled != 0 {
		t.Fatalf("%d inputs still pooled after the deadline", pooled)
	}
}

// TestPairGatesEvolveIdentically: after the same ordered stream — here
// three clients' inputs arriving scrambled, some at one replica only — the
// leader's and the follower's gates hold the same windows.
func TestPairGatesEvolveIdentically(t *testing.T) {
	e := newEnv(t)
	pair, _, _, failCh := quietPair(t, e, false)
	const perClient = 200
	for c, name := range []string{"c0", "c1", "c2"} {
		signer := sig.NewHMACSigner(sig.ID(name), []byte("k"+name))
		if err := e.keys.RegisterSigner(signer); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perClient; i++ {
			seq := uint64((i*7+c)%perClient + 1) // a permutation of 1..perClient
			env, _ := sig.SignEnvelope(signer, ClientInput{Client: name, Seq: seq, Kind: "req"}.Marshal())
			m := newMsg(transport.Addr(name), encodeClientPayload(env))
			if i%3 != 0 {
				pair.Leader.handle(m)
			}
			if i%3 != 1 {
				pair.Follower.handle(m)
			}
		}
	}
	eventually(t, "both replicas to order every input", func() bool {
		return pair.Leader.Stats().Ordered == 3*perClient && pair.Follower.Stats().Ordered == 3*perClient
	})
	select {
	case reason := <-failCh:
		t.Fatalf("pair fail-signalled: %s", reason)
	default:
	}
	pair.Leader.mu.Lock()
	pair.Follower.mu.Lock()
	defer pair.Leader.mu.Unlock()
	defer pair.Follower.mu.Unlock()
	if len(pair.Leader.gate.streams) != 3 || !reflect.DeepEqual(pair.Leader.gate.streams, pair.Follower.gate.streams) {
		t.Fatal("leader and follower gates differ after the same ordered stream")
	}
}

// TestReceiverHandsOffInAcceptanceOrder: a pair's two replicas deliver on
// two transport goroutines. Each link is FIFO, so outputs are accepted in
// sequence order; the application must see them in that order even when
// the goroutine that accepted one output is slow to hand it over.
func TestReceiverHandsOffInAcceptanceOrder(t *testing.T) {
	e := newEnv(t)
	src := e.addFakeFS("src")
	const n = 60
	var mu sync.Mutex
	var got []string
	rc := NewReceiver(e.dir, e.keys, func(_ string, out sm.Output) {
		if len(out.Payload)%2 == 1 {
			time.Sleep(time.Millisecond) // a preempted handler goroutine
		}
		mu.Lock()
		got = append(got, string(out.Payload))
		mu.Unlock()
	}, nil)
	links := [2][]transport.Message{}
	var want []string
	for seq := 1; seq <= n; seq++ {
		payload := strings.Repeat("x", seq)
		want = append(want, payload)
		viaL, viaF := src.output(t, uint64(seq), payload)
		links[0] = append(links[0], newMsg(LeaderAddr("src"), viaL))
		links[1] = append(links[1], newMsg(FollowerAddr("src"), viaF))
	}
	var wg sync.WaitGroup
	for _, link := range links {
		wg.Add(1)
		go func(link []transport.Message) {
			defer wg.Done()
			for _, m := range link {
				rc.Handle(m)
			}
		}(link)
	}
	wg.Wait()
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if i >= len(want) || got[i] != want[i] {
				t.Fatalf("%d outputs handed over; position %d holds output %d", len(got), i, len(got[i]))
			}
		}
		t.Fatalf("%d of %d outputs handed over", len(got), n)
	}
}

// TestDuplicatePathAllocatesNothing: the gate's answer to a copy it already
// holds is a header peek and a bit test.
func TestDuplicatePathAllocatesNothing(t *testing.T) {
	e := newEnv(t)
	const name = "a-source-name-longer-than-any-stack-conversion-buffer"
	src := e.addFakeFS(name)
	pair, _, _, _ := quietPair(t, e, true)
	viaL, viaF := src.output(t, 1, strings.Repeat("x", 8192))
	pooled, _ := src.output(t, 2, "y")
	rc := NewReceiver(e.dir, e.keys, nil, nil)
	rc.Handle(newMsg(LeaderAddr(name), viaL))
	pair.Leader.handle(newMsg(LeaderAddr(name), viaL))
	pair.Follower.handle(newMsg(LeaderAddr(name), pooled))
	eventually(t, "follower to order the forwarded input", func() bool { return pair.Follower.Stats().Ordered == 1 })

	dup, dupPooled := newMsg(FollowerAddr(name), viaF), newMsg(FollowerAddr(name), pooled)
	for name, handle := range map[string]func(){
		"leader, ordered":   func() { pair.Leader.handle(dup) },
		"follower, ordered": func() { pair.Follower.handle(dup) },
		"follower, pooled":  func() { pair.Follower.handle(dupPooled) },
		"receiver":          func() { rc.Handle(dup) },
	} {
		if allocs := testing.AllocsPerRun(200, handle); allocs != 0 {
			t.Errorf("%s: a known duplicate costs %.0f allocations", name, allocs)
		}
	}
}

// TestDedupeMemoryIsBounded drives one pair and a receiver with 300k
// distinct inputs from 4 sources and checks that what they remember stops
// growing once every source's window exists.
func TestDedupeMemoryIsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("pushes 300k inputs through a pair")
	}
	e := newEnv(t)
	sink := &countingSink{}
	rc := NewReceiver(e.dir, e.keys, sink.onOutput, nil)
	e.dir.RegisterPlain("app", "app")
	e.net.Register("app", rc.Handle)
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfg.LocalName = "app"
	cfg.Delta = 5 * time.Second // a loaded test host must not look like a dead peer
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	var clients []*Client
	for _, name := range []string{"c0", "c1", "c2", "c3"} {
		clients = append(clients, e.addClient(name))
	}

	sent := 0
	heapAfter := func(total int) uint64 {
		for sent < total {
			for _, c := range clients {
				if err := c.Send("p", "req", []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			sent += len(clients)
			// Closed loop: queues stay short, so the heap shows what is
			// remembered, not what is in flight.
			if sent%256 == 0 {
				eventually(t, "outputs to come back", func() bool { return int(sink.n.Load()) >= sent })
			}
		}
		eventually(t, "outputs to come back", func() bool { return int(sink.n.Load()) >= sent })
		if pair.Failed() {
			t.Fatal("pair fail-signalled")
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	at100k := heapAfter(100_000)
	at300k := heapAfter(300_000)
	if grown := int64(at300k) - int64(at100k); grown > 1<<20 {
		t.Fatalf("heap in use grew %d KiB between 100k and 300k inputs (%d -> %d KiB)", grown>>10, at100k>>10, at300k>>10)
	}
	pair.Leader.mu.Lock()
	streams := len(pair.Leader.gate.streams)
	pair.Leader.mu.Unlock()
	if streams != len(clients) {
		t.Fatalf("leader gate holds %d windows for %d sources", streams, len(clients))
	}
}

type countingSink struct{ n atomic.Int64 }

func (s *countingSink) onOutput(string, sm.Output) { s.n.Add(1) }
