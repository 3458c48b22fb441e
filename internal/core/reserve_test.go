package failsignal

import (
	"strings"
	"sync"
	"testing"
	"time"

	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
)

// holdingVerifier holds its first signature check until release is
// closed, so a test can keep one copy of an input inside its decode and
// verification while another copy arrives.
type holdingVerifier struct {
	sig.Verifier
	once             sync.Once
	entered, release chan struct{}
}

func newHoldingVerifier(v sig.Verifier) *holdingVerifier {
	return &holdingVerifier{Verifier: v, entered: make(chan struct{}), release: make(chan struct{})}
}

func (v *holdingVerifier) Verify(id sig.ID, data, s []byte) error {
	first := false
	v.once.Do(func() { first = true })
	if first {
		close(v.entered)
		<-v.release
	}
	return v.Verifier.Verify(id, data, s)
}

// reserveCase feeds first to handle on another goroutine, holds it inside
// its signature check, and feeds second behind it, which must wait for
// first's verdict rather than be decoded meanwhile; then it lets first
// finish.
func reserveCase(t *testing.T, v *holdingVerifier, handle func([]byte), first, second []byte) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		handle(first)
	}()
	<-v.entered
	hashed := sig.BodyBytes()
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		handle(second)
	}()
	select {
	case <-waited:
		t.Fatal("a copy that arrived while another copy of its input was decoded did not wait for that copy's verdict")
	case <-time.After(20 * time.Millisecond):
	}
	if n := sig.BodyBytes() - hashed; n != 0 {
		t.Fatalf("the waiting copy was decoded meanwhile: %d payload bytes hashed", n)
	}
	close(v.release)
	<-done
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("the waiting copy was never released")
	}
}

// TestReservationForgedCopyFirst: a forged copy holding its input's
// reservation keeps the authentic copy behind it waiting, not dropped: the
// forgery is refused and the authentic copy then decoded and accepted, at
// a pair half and at a receiving endpoint alike.
func TestReservationForgedCopyFirst(t *testing.T) {
	for _, where := range []string{"replica", "receiver"} {
		t.Run(where, func(t *testing.T) {
			e := newEnv(t)
			src := e.addFakeFS("src")
			viaL, viaF := src.output(t, 1, strings.Repeat("p", 64))
			hv := newHoldingVerifier(e.keys)
			handle, stats := reserveRig(t, e, where, hv)
			reserveCase(t, hv, handle, forge(viaL), viaF)
			if rejected, accepted := stats(); rejected != 1 || accepted != 1 {
				t.Fatalf("%d rejected, %d accepted: want the forgery refused and the authentic copy accepted", rejected, accepted)
			}
		})
	}
}

// TestReservationWaitingCopyDropped: a copy waiting behind an authentic
// copy is dropped when that copy is accepted, never decoded: the payload
// is hashed once.
func TestReservationWaitingCopyDropped(t *testing.T) {
	for _, where := range []string{"replica", "receiver"} {
		t.Run(where, func(t *testing.T) {
			e := newEnv(t)
			src := e.addFakeFS("src")
			viaL, viaF := src.output(t, 1, strings.Repeat("p", 64))
			hv := newHoldingVerifier(e.keys)
			handle, stats := reserveRig(t, e, where, hv)
			hashed := sig.BodyBytes()
			reserveCase(t, hv, handle, viaL, viaF)
			if rejected, accepted := stats(); rejected != 0 || accepted != 1 {
				t.Fatalf("%d rejected, %d accepted: want one copy accepted", rejected, accepted)
			}
			if n := sig.BodyBytes() - hashed; n != 64 {
				t.Fatalf("%d payload bytes hashed for two copies of a 64-byte payload; the waiting copy was decoded", n)
			}
		})
	}
}

// reserveRig returns a handler fed one copy at a time — a pair's leader or
// a receiving endpoint, checking signatures with v — and its counts of
// refused and accepted copies.
func reserveRig(t *testing.T, e *env, where string, v sig.Verifier) (func([]byte), func() (uint64, uint64)) {
	t.Helper()
	if where == "receiver" {
		sink := newAppSink()
		rc := NewReceiver(e.dir, v, sink.onOutput, sink.onFail)
		return func(raw []byte) { rc.Handle(newMsg(LeaderAddr("src"), raw)) },
			func() (uint64, uint64) { return rc.Stats().Rejected, uint64(sink.outputCount()) }
	}
	cfg := e.pairConfig("p", func() sm.Machine { return silentMachine{} })
	first := true
	cfg.NewVerifier = func() sig.Verifier {
		if first { // the leader's
			first = false
			return v
		}
		return e.keys
	}
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pair.Close)
	return func(raw []byte) { pair.Leader.handle(newMsg(FollowerAddr("src"), raw)) },
		func() (uint64, uint64) { st := pair.Leader.Stats(); return st.Rejected, st.Ordered }
}
