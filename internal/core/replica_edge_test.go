package failsignal

import (
	"fmt"
	"testing"
	"time"

	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
)

// TestRelayFIFOPreserved is the regression test for the relay-reordering
// bug: when the direct client→leader copies are severely delayed, the
// leader learns everything through follower relays — which must arrive in
// the client's submission order, or a later input could be ordered before
// an earlier one it depends on.
func TestRelayFIFOPreserved(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfg.LocalName = "app"
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	client := e.addClient("client")
	// Delay the direct client→leader link far beyond everything else, so
	// the relay path wins every race.
	e.net.SetOneWayProfile("client", LeaderAddr("p"), profileWithLatency(300*time.Millisecond))

	const total = 100
	for i := 0; i < total; i++ {
		if err := client.Send("p", "req", []byte(fmt.Sprintf("r%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	outs := sink.waitOutputs(t, total, 20*time.Second)
	for i, out := range outs {
		want := fmt.Sprintf("%06d|r%03d", i+1, i)
		if string(out.Payload) != want {
			t.Fatalf("output %d = %q, want %q (relay path reordered inputs)", i, out.Payload, want)
		}
	}
	if pair.Failed() {
		t.Fatal("pair fail-signalled under relay-dominated input")
	}
}

// TestCompareDeadlineFormula pins the Section 2.2 deadline arithmetic.
func TestCompareDeadlineFormula(t *testing.T) {
	r := &Replica{cfg: ReplicaConfig{Role: Leader, Delta: 10 * time.Millisecond}}
	got := r.compareDeadline(3*time.Millisecond, time.Millisecond)
	want := 2*10*time.Millisecond + 2*3*time.Millisecond + 2*time.Millisecond
	if got != want {
		t.Fatalf("leader deadline = %v, want %v", got, want)
	}
	r.cfg.Role = Follower
	got = r.compareDeadline(3*time.Millisecond, time.Millisecond)
	want = 10*time.Millisecond + 2*3*time.Millisecond + 2*time.Millisecond
	if got != want {
		t.Fatalf("follower deadline = %v, want %v", got, want)
	}
}

// TestFollowerRejectsNonMonotonicTick: a leader whose tick stream goes
// backwards is faulty by construction.
func TestFollowerRejectsNonMonotonicTick(t *testing.T) {
	e := newEnv(t)
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	failCh := make(chan string, 2)
	cfg.OnFailSignal = func(reason string) { failCh <- reason }
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	t1 := time.Date(2003, 6, 23, 12, 0, 0, 0, time.UTC)
	t0 := t1.Add(-time.Second)
	fp := fwdPayload{Index: 0, Raw: encodeTickPayload(t1)}
	if err := e.net.Send(LeaderAddr("p"), FollowerAddr("p"), MsgFwd, fp.marshal()); err != nil {
		t.Fatal(err)
	}
	fp = fwdPayload{Index: 1, Raw: encodeTickPayload(t0)} // backwards
	if err := e.net.Send(LeaderAddr("p"), FollowerAddr("p"), MsgFwd, fp.marshal()); err != nil {
		t.Fatal(err)
	}
	select {
	case reason := <-failCh:
		if want := "leader tick went backwards"; reason != want {
			t.Fatalf("reason = %q", reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower accepted a non-monotonic tick stream")
	}
}

// TestECMPOverflowTreatedAsFault: a peer flooding candidates far ahead of
// the local machine is considered faulty rather than exhausting memory.
func TestECMPOverflowTreatedAsFault(t *testing.T) {
	e := newEnv(t)
	// A machine that never produces outputs, so ECMP entries never match.
	cfg := e.pairConfig("p", func() sm.Machine { return silentMachine{} })
	failCh := make(chan string, 2)
	cfg.OnFailSignal = func(reason string) { failCh <- reason }
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	// The follower's Compare signer floods the leader with candidates.
	followerSigner := sig.NewHMACSigner(FollowerID("p"), []byte("hmac-key:"+string(FollowerID("p"))))
	for seq := uint64(1); seq <= maxECMP+2; seq++ {
		d := formOf(sm.MarshalOutput(sm.Output{Kind: "x"}))
		body := OutputBody{Source: "p", Seq: seq, DigestOnly: true, Output: d[:]}
		env, err := sig.SignEnvelope(followerSigner, body.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.net.Send(FollowerAddr("p"), LeaderAddr("p"), MsgSingle, env.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case reason := <-failCh:
		if want := "peer flooded the external candidate pool"; reason != want {
			t.Fatalf("reason = %q", reason)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ECMP flood not detected")
	}
}

type silentMachine struct{}

func (silentMachine) Step(sm.Input) []sm.Output { return nil }

// TestPairCloseIsIdempotent and messages after close are dropped quietly.
func TestPairCloseIsIdempotent(t *testing.T) {
	e := newEnv(t)
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pair.Close()
	pair.Close()
	pair.Leader.Close()
	if pair.Failed() {
		t.Fatal("Close marked the pair failed")
	}
}

// TestReceiverNilCallbacks: a receiver with nil callbacks must not panic.
func TestReceiverNilCallbacks(t *testing.T) {
	e := newEnv(t)
	rc := NewReceiver(e.dir, e.keys, nil, nil)
	e.dir.RegisterPlain("nilapp", "nilapp")
	e.net.Register("nilapp", rc.Handle)
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfg.LocalName = "nilapp"
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	client := e.addClient("client")
	if err := client.Send("p", "req", []byte("x")); err != nil {
		t.Fatal(err)
	}
	pair.Leader.InjectFailSignal()
	time.Sleep(50 * time.Millisecond) // would panic by now if callbacks were required
}

// TestReceiverIgnoresIrrelevantTraffic: garbage, wrong kinds, client-tag
// payloads.
func TestReceiverIgnoresIrrelevantTraffic(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	e.net.Register("noise", func(msg netsimMessage) {})
	_ = sink
	// Unknown kind.
	if err := e.net.Send("noise", "app", "weird.kind", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	// Garbage payload on a known kind.
	if err := e.net.Send("noise", "app", MsgOut, []byte{0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if sink.outputCount() != 0 || sink.failCount() != 0 {
		t.Fatal("receiver reacted to noise")
	}
}

// TestStatsSnapshotConsistency: ordered inputs eventually equal at both
// replicas of a quiescent healthy pair (modulo in-flight ticks).
func TestStatsSnapshotConsistency(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfg.LocalName = "app"
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	client := e.addClient("client")
	const total = 50
	for i := 0; i < total; i++ {
		if err := client.Send("p", "req", nil); err != nil {
			t.Fatal(err)
		}
	}
	sink.waitOutputs(t, total, 10*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for {
		l, f := pair.Leader.Stats(), pair.Follower.Stats()
		if l.Ordered == total && f.Ordered == total &&
			l.Outputs == total && f.Outputs == total &&
			l.Matched == total && f.Matched == total {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged: leader %+v follower %+v", l, f)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOutputsWithNoDestinationsStillCompared: an output addressed nowhere
// must still be cross-checked (a divergence there is a fault like any
// other) and must not leak pool entries or trigger timeouts.
func TestOutputsWithNoDestinationsStillCompared(t *testing.T) {
	e := newEnv(t)
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp") }) // To = []
	cfg.Delta = 30 * time.Millisecond
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	client := e.addClient("client")
	for i := 0; i < 5; i++ {
		if err := client.Send("p", "req", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		l := pair.Leader.Stats()
		f := pair.Follower.Stats()
		if l.Matched == 5 && f.Matched == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("destination-less outputs not compared: %+v %+v", l, f)
		}
		time.Sleep(time.Millisecond)
	}
	// Past all deadlines: no fail-signal may have fired.
	time.Sleep(150 * time.Millisecond)
	if pair.Failed() {
		t.Fatal("pair fail-signalled on destination-less outputs")
	}
}
