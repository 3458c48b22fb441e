package failsignal

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
	"fsnewtop/transport"
)

// compareSizes are the payload sizes every digest-compare property is
// checked at: nothing, the small-message workloads' size, and the bytes
// workload's. There is no threshold, so no size may behave differently.
var compareSizes = []int{0, 16, 8192}

// TestOutputBodyFlagsWireCompat pins the flags-byte trick: a body without
// DigestOnly must encode byte-identically to the historical bool-encoded
// form, and unknown flag bits must be refused rather than silently eaten.
func TestOutputBodyFlagsWireCompat(t *testing.T) {
	for _, failSig := range []bool{false, true} {
		body := OutputBody{Source: "p", Seq: 7, FailSignal: failSig, Output: []byte("out")}
		b := body.Marshal()
		// Historical layout: string, u64, u8 bool, bytes32. The flags byte
		// sits where the bool byte sat and must carry the same value.
		boolOff := 4 + len("p") + 8
		want := byte(0)
		if failSig {
			want = 1
		}
		if b[boolOff] != want {
			t.Fatalf("flags byte = %d, want %d (wire compat broken)", b[boolOff], want)
		}
		back, err := UnmarshalOutputBody(b)
		if err != nil {
			t.Fatal(err)
		}
		if back.FailSignal != failSig || back.DigestOnly {
			t.Fatalf("round trip = %+v", back)
		}
	}

	d := sig.Digest([]byte("full"))
	body := OutputBody{Source: "p", Seq: 1, DigestOnly: true, Output: d[:]}
	back, err := UnmarshalOutputBody(body.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !back.DigestOnly || back.FailSignal || !bytes.Equal(back.Output, d[:]) {
		t.Fatalf("digest-only round trip = %+v", back)
	}

	bad := body.Marshal()
	bad[4+len("p")+8] |= 0x80
	if _, err := UnmarshalOutputBody(bad); err == nil {
		t.Fatal("accepted unknown flag bits")
	}
}

// TestFSDigestPayloadRejectsTamperedBody checks the decode gate of the one
// form an output travels in: the bytes beside the double signature must
// rehash to the signed digest, and a body may not arrive in the other
// form's clothes. The refusal comes before any signature is trusted — a
// counting verifier sees no check for a refused copy — and leaves the key
// unmarked, so the authentic copy behind it is still accepted.
func TestFSDigestPayloadRejectsTamperedBody(t *testing.T) {
	for _, size := range compareSizes {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			e := newEnv(t)
			src := e.addFakeFS("src")
			payload := string(bytes.Repeat([]byte("p"), size))
			good, _ := src.output(t, 3, payload)
			full := sm.MarshalOutput(sm.Output{Kind: "k", To: []string{"x"}, Payload: []byte(payload)})

			p, err := decodeNewPayload(good)
			if err != nil {
				t.Fatal(err)
			}
			if p.tag != tagFSD || !bytes.Equal(p.full, full) {
				t.Fatalf("decoded tag %d, %d output bytes", p.tag, len(p.full))
			}
			if key, ok := peekKey(good); !ok || key.String() != "f|src|3" {
				t.Fatalf("dedupe key = %q, %v", key, ok)
			}

			flipped := append([]byte(nil), full...)
			flipped[len(flipped)-1] ^= 1
			other := sm.MarshalOutput(sm.Output{Kind: "k", To: []string{"x"}, Payload: []byte(payload + "!")})
			attacks := map[string][]byte{
				"tampered bytes beside a valid double":         encodeFSDigestPayload(p.dbl, flipped),
				"another output's bytes beside a valid double": encodeFSDigestPayload(p.dbl, other),
				"no bytes beside a valid double":               encodeFSDigestPayload(p.dbl, nil),
				"a digest body travelling bare":                encodeFSPayload(p.dbl),
			}
			// The deleted form: the output itself as the signed body.
			attacks["an output signed in full, travelling bare"], _ = src.copies(t,
				OutputBody{Source: "src", Seq: 3, Output: full}, nil)
			fsig, _ := src.copies(t, failSignalBody("src"), nil)
			fsDbl, err := decodeNewPayload(fsig)
			if err != nil {
				t.Fatal(err)
			}
			attacks["a fail-signal with bytes beside it"] = encodeFSDigestPayload(fsDbl.dbl, full)

			rv := &countingVerifier{Verifier: e.keys}
			sink := newAppSink()
			rc := NewReceiver(e.dir, rv, sink.onOutput, sink.onFail)
			pair, lv, fv, failCh := quietPair(t, e, true)
			for name, raw := range attacks {
				if _, err := decodeNewPayload(raw); err == nil {
					t.Errorf("%s: decoded", name)
				}
				rc.Handle(newMsg(LeaderAddr("src"), raw))
				pair.Leader.handle(newMsg(LeaderAddr("src"), raw))
				pair.Follower.handle(newMsg(LeaderAddr("src"), raw))
			}
			if n := rv.n.Load() + lv.n.Load() + fv.n.Load(); n != 0 {
				t.Fatalf("%d signature checks were spent on copies whose bytes do not match their digest", n)
			}
			if sink.outputCount() != 0 || sink.failCount() != 0 || pair.Leader.Stats().Ordered != 0 {
				t.Fatal("a refused copy was accepted")
			}

			rc.Handle(newMsg(LeaderAddr("src"), good))
			pair.Leader.handle(newMsg(LeaderAddr("src"), good))
			if sink.outputCount() != 1 || pair.Leader.Stats().Ordered != 1 {
				t.Fatal("the authentic copy behind the refused ones was not accepted")
			}
			if got := sink.waitOutputs(t, 1, time.Second)[0].Payload; !bytes.Equal(got, []byte(payload)) {
				t.Fatalf("accepted output carries %d bytes, want the %d sent", len(got), size)
			}
			select {
			case reason := <-failCh:
				t.Fatalf("pair fail-signalled over refused copies: %s", reason)
			default:
			}
		})
	}
}

// tap records what reaches one address, then hands it on.
func (e *env) tap(addr transport.Addr, next transport.Handler) <-chan transport.Message {
	seen := make(chan transport.Message, 1024)
	e.net.Register(addr, func(m transport.Message) {
		seen <- m
		next(m)
	})
	return seen
}

// TestDigestCompareDeliversLargeAndSmall runs one pair over every size:
// the application sees the outputs byte for byte, every output leaves as a
// digest body with its bytes beside it, and what the Compare threads
// exchange is the same few bytes whatever the payload.
func TestDigestCompareDeliversLargeAndSmall(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfg.LocalName = "app"
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	singles := e.tap(LeaderAddr("p"), pair.Leader.handle)

	client := e.addClient("client")
	for _, size := range compareSizes {
		if err := client.Send("p", "req", bytes.Repeat([]byte("L"), size)); err != nil {
			t.Fatal(err)
		}
	}
	outs := sink.waitOutputs(t, len(compareSizes), 5*time.Second)
	for i, size := range compareSizes {
		want := append([]byte(fmt.Sprintf("%06d|", i+1)), bytes.Repeat([]byte("L"), size)...)
		if !bytes.Equal(outs[i].Payload, want) {
			t.Fatalf("output %d: %d bytes, want %d", i, len(outs[i].Payload), len(want))
		}
	}
	if pair.Failed() {
		t.Fatal("healthy pair fail-signalled")
	}

	singleLen := 0
	for seen := 0; seen < len(compareSizes); {
		select {
		case m := <-singles:
			if m.Kind != MsgSingle {
				continue
			}
			seen++
			env, err := sig.UnmarshalEnvelope(m.Payload)
			if err != nil {
				t.Fatal(err)
			}
			body, err := UnmarshalOutputBody(env.Body)
			if err != nil || !body.DigestOnly || len(body.Output) != 32 {
				t.Fatalf("candidate body %+v, %v: want a 32-byte digest", body, err)
			}
			if singleLen == 0 {
				singleLen = len(m.Payload)
			}
			if len(m.Payload) != singleLen {
				t.Fatalf("candidate of %d bytes after one of %d: the sync link still scales with the payload", len(m.Payload), singleLen)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("saw %d of %d candidates on the sync link", seen, len(compareSizes))
		}
	}
}

// TestDigestCompareDetectsCorruption proves digest comparison is as
// discriminating as byte comparison at every size: one replica signing the
// digest of different bytes is a mismatch, the pair fail-signals, and the
// wrong output never reaches the application.
func TestDigestCompareDetectsCorruption(t *testing.T) {
	for _, size := range compareSizes {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			e := newEnv(t)
			sink := e.addApp("app")
			instance := 0
			cfg := e.pairConfig("p", func() sm.Machine {
				instance++
				m := sm.Machine(newEchoMachine("resp", sm.LocalDelivery))
				if instance == 1 {
					m = &corruptingMachine{inner: m, corrupt: 2}
				}
				return m
			})
			cfg.LocalName = "app"
			pair, err := NewPair(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer pair.Close()

			client := e.addClient("client")
			req := bytes.Repeat([]byte("x"), size)
			for i := 0; i < 3; i++ {
				if err := client.Send("p", "req", req); err != nil {
					t.Fatal(err)
				}
			}
			if src := sink.waitFail(t, 5*time.Second); src != "p" {
				t.Fatalf("fail-signal attributed to %q, want %q", src, "p")
			}
			if !pair.Failed() {
				t.Fatal("pair did not record failure")
			}
			time.Sleep(20 * time.Millisecond) // anything still in flight lands
			for i, out := range sink.waitOutputs(t, 0, time.Second) {
				if want := append([]byte(fmt.Sprintf("%06d|", i+1)), req...); !bytes.Equal(out.Payload, want) {
					t.Fatalf("a wrong output reached the application: %q...", out.Payload[:7])
				}
			}
			if n := sink.outputCount(); n > 1 {
				t.Fatalf("%d outputs delivered; only the one before the fault could match", n)
			}
		})
	}
}

// TestDigestCompareFSToFSChain pushes a pair's output into a second pair:
// the bytes-beside-a-double payload must verify, dedupe, and decode back
// into the machine input at both replicas of the receiving pair.
func TestDigestCompareFSToFSChain(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	cfgB := e.pairConfig("B", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfgB.LocalName = "app"
	pairB, err := NewPair(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer pairB.Close()

	cfgA := e.pairConfig("A", func() sm.Machine { return newEchoMachine("req", "B") })
	pairA, err := NewPair(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer pairA.Close()

	client := e.addClient("client")
	for _, size := range compareSizes {
		if err := client.Send("A", "req", bytes.Repeat([]byte("c"), size)); err != nil {
			t.Fatal(err)
		}
	}
	outs := sink.waitOutputs(t, len(compareSizes), 5*time.Second)
	for i, size := range compareSizes {
		want := append([]byte(fmt.Sprintf("%06d|%06d|", i+1, i+1)), bytes.Repeat([]byte("c"), size)...)
		if !bytes.Equal(outs[i].Payload, want) {
			t.Fatalf("chained output %d: %d bytes, want %d", i, len(outs[i].Payload), len(want))
		}
	}
	if pairA.Failed() || pairB.Failed() {
		t.Fatal("chained pairs fail-signalled")
	}
}

// TestFailSignalTravelsWithoutBody: the fail-signal is the one thing an FS
// process still sends as a bare double-signed body — it pins no bytes, so
// it carries none — and it verifies at a receiver exactly as before.
func TestFailSignalTravelsWithoutBody(t *testing.T) {
	e := newEnv(t)
	sink := newAppSink()
	rc := NewReceiver(e.dir, e.keys, sink.onOutput, sink.onFail)
	e.dir.RegisterPlain("app", "app")
	wire := e.tap("app", rc.Handle)
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfg.LocalName = "app"
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	pair.Leader.InjectFailSignal()
	if src := sink.waitFail(t, 5*time.Second); src != "p" {
		t.Fatalf("fail-signal attributed to %q", src)
	}
	m := <-wire
	p, err := decodeNewPayload(m.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if p.tag != tagFS || !p.body.FailSignal || p.body.DigestOnly || len(p.body.Output) != 0 || p.full != nil {
		t.Fatalf("fail-signal travelled as tag %d, body %+v, %d bytes beside it", p.tag, p.body, len(p.full))
	}
	if err := e.dir.VerifyFromFS("p", p.dbl, e.keys); err != nil {
		t.Fatalf("fail-signal does not verify: %v", err)
	}
}
