package failsignal

import (
	"testing"
	"time"

	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
	"fsnewtop/transport"
	"fsnewtop/transport/tcpnet"
)

// TestReceiverDedupAcrossTCPReconnect pins the interceptor's duplicate
// suppression against the one duplication source tcpnet cannot filter: a
// sender restarting with a fresh incarnation epoch. Within one
// incarnation the per-link sequence watermark makes reconnect races
// degrade to loss, never duplication — but a restarted (or failover)
// sender legitimately re-emits a double-signed output under a new epoch,
// and the wire must deliver it (sequence numbers restarting are not
// replays). The invocation layer's receiver is the layer that must hold
// the line, deduplicating on the output's (source, seq) identity.
func TestReceiverDedupAcrossTCPReconnect(t *testing.T) {
	book := tcpnet.NewAddrBook()
	recvT, err := tcpnet.New(tcpnet.Config{Book: book})
	if err != nil {
		t.Fatal(err)
	}
	defer recvT.Close()

	dir := NewDirectory()
	keys := sig.NewDirectory()
	lSigner := sig.NewHMACSigner(LeaderID("P"), []byte("kl"))
	fSigner := sig.NewHMACSigner(FollowerID("P"), []byte("kf"))
	if err := keys.RegisterSigner(lSigner); err != nil {
		t.Fatal(err)
	}
	if err := keys.RegisterSigner(fSigner); err != nil {
		t.Fatal(err)
	}
	dir.RegisterFS("P", LeaderAddr("P"), FollowerAddr("P"), LeaderID("P"), FollowerID("P"))

	// One double-signed output of FS process P, as both its FSOs (and a
	// restarted one) would emit it.
	full := sm.MarshalOutput(sm.Output{Kind: "res", Payload: []byte("x")})
	d := sig.Digest(full)
	body := OutputBody{Source: "P", Seq: 7, DigestOnly: true, Output: d[:]}
	env, err := sig.SignEnvelope(fSigner, body.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	dbl, err := sig.CounterSign(lSigner, env)
	if err != nil {
		t.Fatal(err)
	}
	payload := encodeFSDigestPayload(dbl, full)

	sink := newAppSink()
	rc := NewReceiver(dir, keys, sink.onOutput, sink.onFail)
	recvT.Register("app", rc.Handle)

	// First incarnation delivers the output once.
	send1, err := tcpnet.New(tcpnet.Config{Book: book})
	if err != nil {
		t.Fatal(err)
	}
	if err := send1.Send(LeaderAddr("P"), "app", MsgOut, payload); err != nil {
		t.Fatal(err)
	}
	sink.waitOutputs(t, 1, 5*time.Second)
	send1.Close()

	// The restarted incarnation re-sends the identical output. Fresh
	// epoch: the transport watermark must let it through.
	send2, err := tcpnet.New(tcpnet.Config{Book: book})
	if err != nil {
		t.Fatal(err)
	}
	defer send2.Close()
	if err := send2.Send(LeaderAddr("P"), "app", MsgOut, payload); err != nil {
		t.Fatal(err)
	}

	// Wait until the wire has demonstrably delivered the second copy to
	// the handler, then assert the interceptor suppressed it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := transport.GetStats(recvT)
		if st.Delivered >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second copy never delivered (stats %+v)", st)
		}
		time.Sleep(time.Millisecond)
	}
	if got := sink.outputCount(); got != 1 {
		t.Fatalf("interceptor passed %d copies of output (P,7) to the application, want 1", got)
	}
}
