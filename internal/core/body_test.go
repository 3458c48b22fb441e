package failsignal

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"fsnewtop/internal/codec"
	"fsnewtop/internal/faults"
	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
)

// bodyMachine answers each "req" with an output that carries the request
// on as a body region behind a small header, the way group's encoders
// carry an application payload from a request into its data and delivery
// messages.
type bodyMachine struct{}

func (bodyMachine) Step(in sm.Input) []sm.Output {
	if in.Kind != "req" {
		return nil
	}
	w := codec.NewWriter(4 + 3 + 4 + len(in.Payload))
	w.String("hdr")
	w.Body32(in.Payload)
	return []sm.Output{{Kind: "resp", To: []string{sm.LocalDelivery}, Payload: w.Bytes(), Bodies: w.Bodies()}}
}

// mint returns the two valid wire copies of one output of s, its body
// regions in the table, as s's leader and follower would dispatch them.
func (s *fakeFS) mint(t *testing.T, seq uint64, out sm.Output) (viaL, viaF []byte) {
	t.Helper()
	head, signed, bodies := encodeFSDigestHead(out, 0)
	form := (*sig.BodyMemo)(nil).Form(signed, bodies)
	bb := OutputBody{Source: s.name, Seq: seq, DigestOnly: true, Output: form[:]}.Marshal()
	copyOf := func(first, second sig.Signer) []byte {
		env, err := sig.SignEnvelope(first, bb)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sig.AppendCounterSign(bytes.Clone(head), second, env)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return copyOf(s.f, s.l), copyOf(s.l, s.f)
}

// twoBodies is an output carrying two application payloads, as a batch of
// two deliveries does.
func twoBodies(a, b []byte) sm.Output {
	w := codec.NewWriter(64 + len(a) + len(b))
	w.U8(1) // the batch's wire version
	w.U32(2)
	w.String("gc.deliver")
	w.Body32(a)
	w.String("gc.deliver")
	w.Body32(b)
	return sm.Output{Kind: "gc.batch", To: []string{"x"}, Payload: w.Bytes(), Bodies: w.Bodies()}
}

// regionsOf returns a tagFSD copy's body regions, offsets from its start.
func regionsOf(t *testing.T, raw []byte) []codec.Region {
	t.Helper()
	r := codec.NewReader(raw)
	r.U8()
	r.Bytes32()
	bodies := r.RegionTable(raw[:r.Pos()])
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return bodies
}

// wantDroppedThenAuthentic feeds bad to a replica and a receiver, then the
// authentic copy: the bad one must be refused without its key being
// admitted, and the authentic one accepted behind it.
func wantDroppedThenAuthentic(t *testing.T, e *env, bad, good []byte) {
	t.Helper()
	pair, lv, _, _ := quietPair(t, e, false)
	k, ok := peekKey(bad) // a copy too broken to name its input is dropped on that alone
	pair.Leader.handle(newMsg(LeaderAddr("src"), bad))
	pair.Leader.mu.Lock()
	known := ok && pair.Leader.gate.known(k)
	pair.Leader.mu.Unlock()
	if st := pair.Leader.Stats(); st.Rejected != 1 || st.Ordered != 0 || known {
		t.Fatalf("leader: %+v, key known %v after a tampered copy", st, known)
	}
	if lv.n.Load() != 0 {
		t.Fatalf("%d signature checks: bytes that miss their digest reached the verifier", lv.n.Load())
	}
	pair.Leader.handle(newMsg(FollowerAddr("src"), good))
	if st := pair.Leader.Stats(); st.Ordered != 1 {
		t.Fatalf("leader: %+v: the authentic copy was not ordered behind a tampered one", st)
	}

	sink := newAppSink()
	rc := NewReceiver(e.dir, e.keys, sink.onOutput, sink.onFail)
	rc.Handle(newMsg(LeaderAddr("src"), bad))
	if st := rc.Stats(); st.Rejected != 1 || sink.outputCount() != 0 {
		t.Fatalf("receiver: %+v, %d outputs after a tampered copy", st, sink.outputCount())
	}
	rc.Handle(newMsg(FollowerAddr("src"), good))
	if sink.outputCount() != 1 {
		t.Fatal("receiver dropped the authentic copy behind a tampered one")
	}
}

// TestBodySubstitutedUnderValidDouble: payload bytes substituted under a
// valid double signature miss the digest form the double signs.
func TestBodySubstitutedUnderValidDouble(t *testing.T) {
	for _, size := range []int{33, 8 << 10} { // the shortest payload marked as a region, and 8 KiB
		e := newEnv(t)
		src := e.addFakeFS("src")
		viaL, viaF := src.mint(t, 1, bodyMachine{}.Step(sm.Input{Kind: "req", Payload: bytes.Repeat([]byte("p"), size)})[0])
		r := regionsOf(t, viaL)[0]
		bad := bytes.Clone(viaL)
		bad[r.Off+len(r.Src)/2] ^= 1
		wantDroppedThenAuthentic(t, e, bad, viaF)
	}
}

// TestBodySwapInBatch: two payloads of one batch traded places keep every
// byte but not the order the digest form pins.
func TestBodySwapInBatch(t *testing.T) {
	e := newEnv(t)
	src := e.addFakeFS("src")
	a, b := bytes.Repeat([]byte("a"), 64), bytes.Repeat([]byte("b"), 64)
	viaL, viaF := src.mint(t, 1, twoBodies(a, b))
	regions := regionsOf(t, viaL)
	ra, rb := regions[0], regions[1]
	bad := bytes.Clone(viaL)
	copy(bad[ra.Off:], b)
	copy(bad[rb.Off:], a)
	wantDroppedThenAuthentic(t, e, bad, viaF)
}

// TestBodyRegionTableTampered: the region table is inside what the double
// signs, so a table that says anything but what the pair hashed is
// refused — whether it still parses or not.
func TestBodyRegionTableTampered(t *testing.T) {
	for name, tamper := range map[string]func(table []byte){
		"region moved":         func(tb []byte) { tb[7]-- },
		"region shortened":     func(tb []byte) { tb[11]-- },
		"region past the end":  func(tb []byte) { tb[10]++ },
		"region count dropped": func(tb []byte) { tb[3] = 0 },
	} {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t)
			src := e.addFakeFS("src")
			viaL, viaF := src.mint(t, 1, bodyMachine{}.Step(sm.Input{Kind: "req", Payload: bytes.Repeat([]byte("p"), 256)})[0])
			full := outputOf(t, viaL)
			bad := bytes.Clone(viaL)
			tamper(bad[1+4+len(full):]) // the table: a count, then offset and length
			wantDroppedThenAuthentic(t, e, bad, viaF)
		})
	}
}

// bodyPair is a pair running bodyMachine whose follower is wrapped by
// wrap, fed one signed request that marks its whole body as a region.
func bodyPair(t *testing.T, wrap func(sm.Machine) sm.Machine) (*Pair, *appSink, chan string) {
	t.Helper()
	e := newEnv(t)
	cfg := e.pairConfig("p", func() sm.Machine { return bodyMachine{} })
	cfg.WrapMachine = func(role Role, m sm.Machine) sm.Machine {
		if role == Follower && wrap != nil {
			return wrap(m)
		}
		return m
	}
	failCh := make(chan string, 4)
	cfg.OnFailSignal = func(reason string) { failCh <- reason }
	sink := newAppSink()
	rc := NewReceiver(e.dir, e.keys, sink.onOutput, sink.onFail)
	e.dir.RegisterPlain("app", "app")
	e.net.Register("app", rc.Handle)
	cfg.LocalName = "app"
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pair.Close)
	signer := newClientSigner(t, e, "cl")
	client := NewClient("cl", "cl", signer, e.net, e.dir)
	body := bytes.Repeat([]byte("q"), 8<<10)
	var bodies []codec.Region
	bodies = append(bodies, codec.Region{Off: 0, Src: body})
	if _, err := client.SendSeq("p", "req", body, bodies); err != nil {
		t.Fatal(err)
	}
	return pair, sink, failCh
}

// TestBodyHashedOncePerHalf: a correct pair hashes the request's payload
// once per half, on verifying it, and its output reuses that digest.
func TestBodyHashedOncePerHalf(t *testing.T) {
	pair, sink, _ := bodyPair(t, nil)
	sink.waitOutputs(t, 1, 5*time.Second)
	for _, r := range []*Replica{pair.Leader, pair.Follower} {
		if st := r.Stats(); st.BodyBytes != 8<<10 || st.BodyReuses != 1 {
			t.Fatalf("%s hashed %d payload bytes and reused %d digests; want one pass and one reuse", r.cfg.Role, st.BodyBytes, st.BodyReuses)
		}
	}
}

// TestBodyCorruptHalfFailSignals: a half whose output's payload bytes
// differ from the request it read them from misses the memo's memcmp,
// hashes what it really emitted, and the pair fail-signals on the
// mismatch.
func TestBodyCorruptHalfFailSignals(t *testing.T) {
	pair, sink, failCh := bodyPair(t, func(m sm.Machine) sm.Machine {
		return &faults.CorruptOutput{Inner: m, At: -1} // the last byte: inside the payload
	})
	select {
	case reason := <-failCh:
		if !strings.Contains(reason, "content mismatch") {
			t.Fatalf("reason = %q", reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a half that rewrote the payload's bytes did not fail-signal")
	}
	if sink.outputCount() != 0 {
		t.Fatal("the corrupted output was delivered")
	}
	if st := pair.Follower.Stats(); st.BodyReuses != 0 {
		t.Fatalf("the corrupted half took %d payload digests from its memo", st.BodyReuses)
	}
}
