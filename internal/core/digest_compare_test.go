package failsignal

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
)

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

// TestFSDigestPayloadRejectsTamperedBody checks the tagFSD decode gate: the
// full bytes must rehash to the signed digest, and a digest-only body may
// not arrive alone under tagFS.
func TestFSDigestPayloadRejectsTamperedBody(t *testing.T) {
	signer := sig.NewHMACSigner("p#L", []byte("k1"))
	counter := sig.NewHMACSigner("p#F", []byte("k2"))
	full := bytes.Repeat([]byte("payload"), 100)
	d := sig.Digest(full)
	body := OutputBody{Source: "p", Seq: 3, DigestOnly: true, Output: d[:]}
	env, err := sig.SignEnvelope(signer, body.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	dbl, err := sig.CounterSign(counter, env)
	if err != nil {
		t.Fatal(err)
	}

	good := encodeFSDigestPayload(dbl, full)
	p, err := decodeNewPayload(good)
	if err != nil {
		t.Fatal(err)
	}
	if p.tag != tagFSD || !bytes.Equal(p.outputBytes(), full) {
		t.Fatalf("decoded %+v", p.tag)
	}
	if key, ok := peekKey(good); !ok || key.String() != "f|p|3" {
		t.Fatalf("dedupe key = %q, %v", key, ok)
	}

	tampered := encodeFSDigestPayload(dbl, append(append([]byte(nil), full...), 'x'))
	if _, err := decodeNewPayload(tampered); err == nil {
		t.Fatal("accepted full bytes that do not rehash to the signed digest")
	}

	if _, err := decodeNewPayload(encodeFSPayload(dbl)); err == nil {
		t.Fatal("accepted a digest-only body with no full bytes (tagFS)")
	}
}

// TestDigestCompareDeliversLargeAndSmall runs a digest-comparing pair over
// payloads straddling the threshold: small outputs take the full-body path,
// large ones the digest path, and the application must see identical
// results either way.
func TestDigestCompareDeliversLargeAndSmall(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfg.LocalName = "app"
	cfg.DigestCompareMin = 256
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	client := e.addClient("client")
	small := []byte("tiny")
	large := bytes.Repeat([]byte("L"), 4096)
	if err := client.Send("p", "req", small); err != nil {
		t.Fatal(err)
	}
	if err := client.Send("p", "req", large); err != nil {
		t.Fatal(err)
	}
	outs := sink.waitOutputs(t, 2, 5*time.Second)
	if string(outs[0].Payload) != "000001|"+string(small) {
		t.Fatalf("small output = %q", outs[0].Payload)
	}
	if want := append([]byte("000002|"), large...); !bytes.Equal(outs[1].Payload, want) {
		t.Fatalf("large output mismatch (%d bytes, want %d)", len(outs[1].Payload), len(want))
	}
	if pair.Failed() {
		t.Fatal("healthy digest-comparing pair fail-signalled")
	}
}

// TestDigestCompareDetectsCorruption proves digest-only comparison is as
// discriminating as byte comparison: one corrupted replica output above the
// threshold must still fail-signal the pair.
func TestDigestCompareDetectsCorruption(t *testing.T) {
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
	cfg.DigestCompareMin = 64
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	client := e.addClient("client")
	for i := 0; i < 3; i++ {
		if err := client.Send("p", "req", bytes.Repeat([]byte("x"), 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if src := sink.waitFail(t, 5*time.Second); src != "p" {
		t.Fatalf("fail-signal attributed to %q, want %q", src, "p")
	}
	if !pair.Failed() {
		t.Fatal("pair did not record failure")
	}
}

// TestDigestCompareFSToFSChain pushes a digest-compared output into a
// second FS pair: the tagFSD payload must verify, dedupe, and decode back
// into the machine input at the receiving pair.
func TestDigestCompareFSToFSChain(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	cfgB := e.pairConfig("B", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfgB.LocalName = "app"
	cfgB.DigestCompareMin = 64
	pairB, err := NewPair(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer pairB.Close()

	cfgA := e.pairConfig("A", func() sm.Machine { return newEchoMachine("req", "B") })
	cfgA.DigestCompareMin = 64
	pairA, err := NewPair(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer pairA.Close()

	client := e.addClient("client")
	big := strings.Repeat("chain", 500)
	if err := client.Send("A", "req", []byte(big)); err != nil {
		t.Fatal(err)
	}
	outs := sink.waitOutputs(t, 1, 5*time.Second)
	if want := "000001|000001|" + big; string(outs[0].Payload) != want {
		t.Fatalf("chained payload %d bytes, want %d", len(outs[0].Payload), len(want))
	}
	if pairA.Failed() || pairB.Failed() {
		t.Fatal("digest-comparing chain pairs fail-signalled")
	}
}
