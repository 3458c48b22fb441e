package failsignal

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/faults"
	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
	"fsnewtop/internal/trace"
	"fsnewtop/transport"
	"fsnewtop/transport/netsim"
)

// clientInput returns the signed wire payload of one client request; the
// client is named after the signer's identity.
func clientInput(t *testing.T, signer sig.Signer, seq uint64, body []byte) []byte {
	t.Helper()
	ci := ClientInput{Client: string(signer.ID()), Seq: seq, Kind: "req", Body: body}
	raw, err := signClientPayload(signer, ci, nil)
	if err != nil {
		t.Fatal(err)
	}
	return raw
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

// countSteps counts the inputs a machine has stepped.
type countSteps struct {
	sm.Machine
	n atomic.Uint64
}

func (c *countSteps) Step(in sm.Input) []sm.Output {
	outs := c.Machine.Step(in)
	c.n.Add(1)
	return outs
}

// silenceRig is a ticking pair on a manual clock, built to watch its
// follower's silence watch: the tests move the clock only while the
// follower's loop is quiet, and stop it at every expiry of the watch, so
// the loop sees each expiry exactly on time unless a test means to stall
// it.
type silenceRig struct {
	t      *testing.T
	clk    *clock.Manual
	cfg    PairConfig
	pair   *Pair
	bound  time.Duration // the follower's silence bound; its loop's passes take no clock time
	steps  *countSteps   // the follower's machine
	ring   *trace.Ring   // the follower's trace
	failAt chan time.Time
	reason chan string
	idx    uint64 // the next order index the test forwards when it plays the leader
}

func newSilenceRig(t *testing.T) *silenceRig {
	t.Helper()
	e := newEnv(t)
	clk := clock.NewManual()
	e.clk = clk
	rig := &silenceRig{t: t, clk: clk, steps: &countSteps{}, failAt: make(chan time.Time, 2), reason: make(chan string, 2)}
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp") })
	cfg.TickInterval = 20 * time.Millisecond
	cfg.WrapMachine = func(role Role, m sm.Machine) sm.Machine {
		if role == Leader {
			return m
		}
		rig.steps.Machine = m
		return rig.steps
	}
	cfg.OnFailSignal = func(r string) {
		rig.failAt <- clk.Now()
		rig.reason <- r
	}
	cfg.Trace = trace.NewRegistry(0, clk.Now)
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pair.Close)
	rig.cfg, rig.pair = cfg, pair
	rig.bound = cfg.TickInterval + cfg.Delta + timerLateness
	rig.ring = pair.Follower.cfg.Trace
	eventually(t, "both loops to aim their timers", func() bool { return clk.Pending() == 2 })
	return rig
}

// crashLeader crashes the pair's leader and waits for its tick timer to
// go. Crashed before its first tick, the leader leaves the test to play
// it: the fwds the follower gets are then the test's.
func (rig *silenceRig) crashLeader() {
	rig.pair.Leader.Crash()
	eventually(rig.t, "the crashed leader to drop its tick timer", func() bool { return rig.clk.Pending() == 1 })
}

// settle waits until the follower's loop has stepped every accepted fwd,
// closed the pass that stepped the last, taken the expired watch at
// taken (0: none), and aimed its timer at the watch's next expiry (no
// other timer on the rig's clock is due at that instant).
func (rig *silenceRig) settle(taken int64) {
	rig.t.Helper()
	f := rig.pair.Follower
	eventually(rig.t, "the follower's loop to settle", func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		next := f.wd.next()
		return f.failed || rig.steps.n.Load() == f.stats.Ordered && f.passStart.IsZero() && next != taken && rig.clk.Armed(time.Unix(0, next))
	})
}

// advanceTo moves the clock to to, stopping at each expiry of the
// follower's silence watch on the way.
func (rig *silenceRig) advanceTo(to time.Time) {
	rig.t.Helper()
	f := rig.pair.Follower
	for {
		f.mu.Lock()
		at, failed := f.wd.next(), f.failed
		f.mu.Unlock()
		if failed || at == 0 || at > to.UnixNano() {
			break
		}
		if d := time.Duration(at - rig.clk.Now().UnixNano()); d > 0 {
			rig.clk.Advance(d)
		}
		rig.settle(at)
	}
	if d := to.Sub(rig.clk.Now()); d > 0 {
		rig.clk.Advance(d)
	}
}

// fwdTick delivers the leader's next tick, stamped at, to the follower
// now, as the leader would send it.
func (rig *silenceRig) fwdTick(at time.Time) {
	rig.t.Helper()
	fp := fwdPayload{Index: rig.idx, Raw: encodeTickPayload(at)}
	rig.idx++
	rig.pair.Follower.handle(transport.Message{From: LeaderAddr("p"), Kind: MsgFwd, Payload: fp.marshal()})
	rig.settle(0)
}

// expectSilenceFailure advances to one bound after last, checks that the
// follower holds out until the last nanosecond and then fail-signals,
// naming the silence and the bound.
func (rig *silenceRig) expectSilenceFailure(last time.Time) {
	rig.t.Helper()
	rig.advanceTo(last.Add(rig.bound - 1))
	if rig.pair.Follower.Failed() {
		rig.t.Fatalf("the follower fail-signalled before one bound (%v) of silence", rig.bound)
	}
	rig.clk.Advance(1)
	select {
	case at := <-rig.failAt:
		if got := at.Sub(last); got != rig.bound {
			rig.t.Fatalf("the follower fail-signalled %v after the last fwd, want the bound %v", got, rig.bound)
		}
		want := fmt.Sprintf("leader silent for %v since its last fwd (bound %v)", rig.bound, rig.bound)
		if r := <-rig.reason; r != want {
			rig.t.Fatalf("reason = %q, want %q", r, want)
		}
	case <-time.After(5 * time.Second):
		rig.t.Fatal("the follower never noticed its silent leader")
	}
	if !rig.traced(trace.EvLeaderSilent) {
		rig.t.Fatal("no leader-silent event in the follower's trace")
	}
}

func (rig *silenceRig) traced(kind trace.Kind) bool {
	for _, ev := range rig.ring.Snapshot() {
		if ev.Kind == kind {
			return true
		}
	}
	return false
}

// TestCrashedLeaderNoticedBySilence: with ticks on, an idle follower
// whose leader crashes needs no input to notice. The leader's last tick
// is its last fwd, and the follower fail-signals exactly one silence
// bound (tick interval + δ + loop slack) after it, and not before.
func TestCrashedLeaderNoticedBySilence(t *testing.T) {
	rig := newSilenceRig(t)
	rig.advanceTo(rig.clk.Now().Add(rig.cfg.TickInterval)) // the leader ticks
	eventually(t, "the leader's tick to reach the follower", func() bool { return rig.pair.Follower.Stats().Ordered == 1 })
	rig.settle(0)
	last := rig.clk.Now()
	rig.crashLeader()
	rig.expectSilenceFailure(last)
	if got := rig.pair.Follower.Stats(); got.Relayed != 0 || got.StallRearms != 0 {
		t.Fatalf("follower stats %+v: it relayed nothing and saw no stall", got)
	}
}

// TestLiveLeaderNeverSilent: a leader that ticks every interval, each
// fwd delayed by anything up to δ on a FIFO link (so that two fwds can
// arrive the interval plus δ apart), never trips the watch in 1,000
// intervals; and the watch stayed live, since silence after the last fwd
// trips it one bound later.
func TestLiveLeaderNeverSilent(t *testing.T) {
	rig := newSilenceRig(t)
	rig.crashLeader()
	rng := rand.New(rand.NewSource(1))
	t0, arrived := rig.clk.Now(), rig.clk.Now()
	for k := 1; k <= 1000; k++ {
		sent := t0.Add(time.Duration(k) * rig.cfg.TickInterval)
		delay := []time.Duration{0, rig.cfg.Delta / 2, rig.cfg.Delta}[rng.Intn(3)]
		if at := sent.Add(delay); at.After(arrived) {
			arrived = at
		}
		rig.advanceTo(arrived)
		rig.fwdTick(sent)
		if rig.pair.Follower.Failed() {
			t.Fatalf("a live leader tripped the watch at interval %d", k)
		}
	}
	if got := rig.pair.Follower.Stats(); got.Ordered != 1000 || got.StallRearms != 0 {
		t.Fatalf("follower stats %+v, want 1000 ordered ticks and no stall", got)
	}
	rig.expectSilenceFailure(arrived)
}

// TestSilenceWatchRidesOutHostStall: a watch that fires later than the
// loop can be late on its own means the follower's host stalled (the
// leader's fwd may be stuck behind the same stall), so the window
// restarts, counted and traced, instead of blaming the leader. A leader
// that then sends one fwd and crashes is still noticed one bound after
// it.
func TestSilenceWatchRidesOutHostStall(t *testing.T) {
	rig := newSilenceRig(t)
	rig.crashLeader()
	due := rig.clk.Now().Add(rig.bound)
	rig.clk.Advance(rig.bound + 10*timerLateness) // the expiry is seen 10 slacks late
	rig.settle(due.UnixNano())
	if got := rig.pair.Follower.Stats(); rig.pair.Follower.Failed() || got.StallRearms != 1 {
		t.Fatalf("after a stall the follower failed (%v) or counted %d stall re-arms, want 1", rig.pair.Follower.Failed(), got.StallRearms)
	}
	if !rig.traced(trace.EvStallRearm) {
		t.Fatal("no stall-rearm event in the follower's trace")
	}
	rig.fwdTick(rig.clk.Now())
	rig.expectSilenceFailure(rig.clk.Now())
	if got := rig.pair.Follower.Stats().StallRearms; got != 1 {
		t.Fatalf("%d stall re-arms, want the one", got)
	}
}
