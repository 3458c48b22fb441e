package failsignal

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/faults"
	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
	"fsnewtop/transport"
	"fsnewtop/transport/netsim"
)

// clientInput returns the signed wire payload of one client request; the
// client is named after the signer's identity.
func clientInput(t *testing.T, signer sig.Signer, seq uint64, body []byte) []byte {
	t.Helper()
	ci := ClientInput{Client: string(signer.ID()), Seq: seq, Kind: "req", Body: body}
	env, err := sig.SignEnvelope(signer, ci.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return encodeClientPayload(env)
}

// newClientSigner registers and returns a client signing key.
func newClientSigner(t *testing.T, e *env, client string) sig.Signer {
	t.Helper()
	signer := sig.NewHMACSigner(sig.ID(client), []byte("k-"+client))
	if err := e.keys.RegisterSigner(signer); err != nil {
		t.Fatal(err)
	}
	return signer
}

// sendLog counts what one address sends: its compare candidates, and
// every kind it sends once the test has marked it failed.
type sendLog struct {
	transport.Transport
	from transport.Addr

	mu      sync.Mutex
	singles int
	failed  bool
	after   map[string]int
}

func (l *sendLog) Send(from, to transport.Addr, kind string, payload []byte) error {
	l.mu.Lock()
	if from == l.from {
		if kind == MsgSingle {
			l.singles++
		}
		if l.failed {
			l.after[kind]++
		}
	}
	l.mu.Unlock()
	return l.Transport.Send(from, to, kind, payload)
}

func (l *sendLog) candidates() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.singles
}

// markFailed starts counting and returns the candidates sent before.
func (l *sendLog) markFailed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed = true
	return l.singles
}

// TestFailedOrCrashedHalfEmitsNothing: once a half has fail-signalled or
// crashed, it sends its peer nothing more — no candidate, fwd or relay.
// So the pair's destination gets no double-signed output beyond those
// whose candidate was already on the wire, since each needs a candidate
// from both halves. (An output the half had matched just before may still
// leave it: the match was decided while the pair was sound.) The failing
// half steps 3 ms per input with 40 queued; its peer runs ahead, and ends
// the test by fail-signalling once the failing half's candidates stop.
// Before the replica loop stopped on failure, the failing half kept
// stepping its backlog and handing its peer candidates, which the peer
// matched and dispatched after the pair's fail-signal.
func TestFailedOrCrashedHalfEmitsNothing(t *testing.T) {
	for _, role := range []Role{Leader, Follower} {
		for _, how := range []string{"crash", "fail-signal"} {
			role, how := role, how
			t.Run(how+"/"+role.String(), func(t *testing.T) {
				e := newEnv(t)
				sink := e.addApp("app")
				addr := LeaderAddr("p")
				if role == Follower {
					addr = FollowerAddr("p")
				}
				log := &sendLog{Transport: e.net, from: addr, after: map[string]int{}}
				cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
				cfg.Net = log
				cfg.LocalName = "app"
				cfg.Delta = 200 * time.Millisecond // the peer must not time out while the slow half works
				cfg.WrapMachine = func(r Role, m sm.Machine) sm.Machine {
					if r == role {
						return &faults.SlowStep{Inner: m, Delay: 3 * time.Millisecond}
					}
					return m
				}
				pair, err := NewPair(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer pair.Close()
				half, peer := pair.Leader, pair.Follower
				if role == Follower {
					half, peer = peer, half
				}

				client := e.addClient("client")
				for i := 0; i < 40; i++ {
					if err := client.Send("p", "req", []byte(fmt.Sprint(i))); err != nil {
						t.Fatal(err)
					}
				}
				eventually(t, "the slow half's first candidates", func() bool { return log.candidates() >= 5 })
				if how == "crash" {
					half.Crash()
				} else {
					half.InjectFailSignal()
				}
				onWire := log.markFailed()

				eventually(t, "the peer to fail-signal", func() bool {
					return peer.Failed() || log.candidates() == 40 // or the whole backlog went out
				})
				eventually(t, "the network to drain", func() bool {
					s := e.net.Stats()
					return s.Delivered+s.Dropped == s.Sent
				})
				log.mu.Lock()
				after := log.after
				log.mu.Unlock()
				if n := after[MsgSingle] + after[MsgFwd] + after[MsgRelay]; n != 0 {
					t.Errorf("after failing, the %s sent its peer %v", role, after)
				}
				if n := sink.outputCount(); n > onWire {
					t.Errorf("destination accepted %d double-signed outputs; only %d candidates left the failing half before it failed", n, onWire)
				}
			})
		}
	}
}

// TestPairGoroutineBudget: a pair is two goroutines, one loop per half —
// with a ticking leader, deadlines armed and outputs compared — and none
// outlive Close, whether or not a half crashed first.
func TestPairGoroutineBudget(t *testing.T) {
	n := netsim.New(clock.NewReal(), netsim.WithShards(1), netsim.WithDefaultProfile(netsim.Profile{
		Latency: netsim.Fixed(100 * time.Microsecond),
	}))
	defer n.Close()
	e := &env{t: t, net: n, dir: NewDirectory(), keys: sig.NewDirectory(), clk: clock.NewReal()}
	sink := e.addApp("app")
	client := e.addClient("client")
	if err := n.Send("client", "app", "warm-up", nil); err != nil { // start the one dispatcher
		t.Fatal(err)
	}
	eventually(t, "the dispatcher to start", func() bool { return n.Stats().Delivered == 1 })
	base := stableGoroutines(t)

	for i, crash := range []bool{false, true} {
		name := fmt.Sprintf("p%d", i)
		cfg := e.pairConfig(name, func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
		cfg.LocalName = "app"
		cfg.TickInterval = time.Millisecond
		pair, err := NewPair(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Send(name, "req", []byte("x")); err != nil {
			t.Fatal(err)
		}
		sink.waitOutputs(t, i+1, 5*time.Second)
		eventually(t, "both halves to match", func() bool {
			return pair.Leader.Stats().Matched == 1 && pair.Follower.Stats().Matched == 1
		})
		if got := runtime.NumGoroutine() - base; got != 2 {
			t.Fatalf("a running pair adds %d goroutines, want 2", got)
		}
		if crash {
			pair.Leader.Crash()
		}
		pair.Close()
		eventually(t, "the pair's goroutines to exit", func() bool { return runtime.NumGoroutine() == base })
	}
}

// stableGoroutines waits until the goroutine count holds still, so
// leftovers of earlier tests do not shift a baseline.
func stableGoroutines(t *testing.T) int {
	t.Helper()
	prev, same := -1, 0
	for i := 0; i < 1000 && same < 5; i++ {
		n := runtime.NumGoroutine()
		if n == prev {
			same++
		} else {
			prev, same = n, 0
		}
		time.Sleep(2 * time.Millisecond)
	}
	return prev
}

// TestCrashedLeaderNoticedAtNextInput settles whether a follower notices
// its crashed leader without traffic. It does not: the follower watches
// the leader only through the deadlines its own inputs arm, so an idle
// follower has nothing armed and never fail-signals. The next input it
// receives is relayed at once (t1 = 0) and arms t2; the follower
// fail-signals exactly t2 = 2δ after that input, and not a nanosecond
// before.
func TestCrashedLeaderNoticedAtNextInput(t *testing.T) {
	e := newEnv(t)
	clk := clock.NewManual()
	e.clk = clk
	failAt := make(chan time.Time, 2)
	reason := make(chan string, 2)
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp") })
	cfg.OnFailSignal = func(r string) {
		failAt <- clk.Now()
		reason <- r
	}
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	pair.Leader.Crash()

	clk.Advance(1000 * cfg.Delta)
	if pair.Follower.Failed() || clk.Pending() != 0 {
		t.Fatalf("an idle follower has a deadline armed (%d timers) or failed (%v)", clk.Pending(), pair.Follower.Failed())
	}

	in := clk.Now()
	pair.Follower.handle(newMsg("c", clientInput(t, newClientSigner(t, e, "c"), 1, []byte("x"))))
	if got := pair.Follower.Stats().Relayed; got != 1 {
		t.Fatalf("follower relayed %d inputs on receipt, want 1", got)
	}
	eventually(t, "the follower's loop to aim its timer at t2", func() bool { return clk.Pending() == 1 })
	clk.Advance(t2PerDelta*cfg.Delta - 1)
	if pair.Follower.Failed() || clk.Pending() != 1 {
		t.Fatal("the follower's deadline fired before t2")
	}
	clk.Advance(1)
	select {
	case at := <-failAt:
		if got := at.Sub(in); got != t2PerDelta*cfg.Delta {
			t.Fatalf("follower fail-signalled %v after the input, want t2 = %v", got, t2PerDelta*cfg.Delta)
		}
		if r := <-reason; !strings.HasPrefix(r, "leader did not order input c|c|1") {
			t.Fatalf("reason = %q", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the follower never noticed its crashed leader")
	}
}
