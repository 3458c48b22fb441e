package failsignal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
	"fsnewtop/transport"
)

// feedPair drives a pair with one signed client input every interval, for
// count inputs, from a registered client endpoint. It is called from
// helper goroutines, so failures are reported with t.Errorf (FailNow is
// only legal on the test goroutine) and feeding stops.
func feedPair(t *testing.T, e *env, dest string, count int, interval time.Duration) {
	t.Helper()
	signer := sig.NewHMACSigner("clientA", []byte("k"))
	if err := e.keys.RegisterSigner(signer); err != nil {
		t.Errorf("registering client signer: %v", err)
		return
	}
	addr := transport.Addr("clientA")
	e.net.Register(addr, func(transport.Message) {})
	client := NewClient("clientA", addr, signer, e.net, e.dir)
	for i := 0; i < count; i++ {
		if err := client.Send(dest, "req", []byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Errorf("client send %d: %v", i, err)
			return
		}
		time.Sleep(interval)
	}
}

// rampSyncLink progressively degrades the pair's leader↔follower link in
// steps, replaying the captured FS-over-TCP wedge interleaving: under the
// shared-connection crawl, compare candidates kept arriving in order but
// each took progressively longer than the armed deadline, while both
// replicas stayed healthy and output-identical. netsim reproduces that
// shape deterministically — per-message latency with the per-link FIFO
// clamp — without the kernel's timing jitter.
func rampSyncLink(e *env, name string, steps int, stepEvery, stepDelay time.Duration) {
	l, f := LeaderAddr(name), FollowerAddr(name)
	for i := 1; i <= steps; i++ {
		e.net.SetLinkProfile(l, f, transport.Profile{
			Latency: transport.Fixed(time.Duration(i) * stepDelay),
		})
		time.Sleep(stepEvery)
	}
}

// TestCompareStallReplayStrict pins what the progress-aware rule still
// guarantees once the wedge's crawl turns into a real stall: after the
// pair has ridden out a degrading sync link (every deadline granted fresh
// windows against a live peer), the peer's candidates stop, and the next
// output fail-signals the pair within one compare window — 2δ+κπ+στ at
// the leader — and not before 2δ. The paper-literal fixed-deadline rule
// that wedged FS-NewTOP over real sockets is gone; its evidence is in
// EXPERIMENTS.md, "The FS-over-TCP round-boundary wedge".
func TestCompareStallReplayStrict(t *testing.T) {
	e := newEnv(t)
	sink := newAppSink()
	failAt := make(chan time.Time, 2)
	cfg := e.pairConfig("P", func() sm.Machine { return newEchoMachine("res", "app") })
	cfg.Delta = 60 * time.Millisecond // window ≈ 2δ = 120ms at the leader
	cfg.OnFailSignal = func(string) { failAt <- time.Now() }
	rc := NewReceiver(e.dir, e.keys, sink.onOutput, sink.onFail)
	e.dir.RegisterPlain("app", "app")
	e.net.Register("app", rc.Handle)

	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	// Keep inputs flowing while the sync link degrades 30ms → 150ms.
	const inputs = 60
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		feedPair(t, e, "P", inputs, 10*time.Millisecond)
	}()
	rampSyncLink(e, "P", 5, 120*time.Millisecond, 30*time.Millisecond)
	wg.Wait()
	sink.waitOutputs(t, inputs, 15*time.Second)
	eventually(t, "both halves to match every output", func() bool {
		return pair.Leader.Stats().Matched == inputs && pair.Follower.Stats().Matched == inputs
	})
	select {
	case <-failAt:
		t.Fatal("pair fail-signalled during the benign crawl")
	default:
	}

	// The stall: the link heals, but the follower's candidates stop
	// reaching the leader.
	e.net.SetLinkProfile(LeaderAddr("P"), FollowerAddr("P"), transport.Profile{Latency: transport.Fixed(100 * time.Microsecond)})
	e.net.Register(LeaderAddr("P"), func(msg transport.Message) {
		if msg.Kind != MsgSingle {
			pair.Leader.handle(msg)
		}
	})
	sent := time.Now()
	if err := e.addClient("late").Send("P", "req", []byte("last")); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-failAt:
		if took := at.Sub(sent); took < 2*cfg.Delta || took > 3*cfg.Delta {
			t.Fatalf("pair fail-signalled %v after its last input; want one compare window, between 2δ = %v and 3δ", took, 2*cfg.Delta)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pair never fail-signalled after its peer's candidates stopped")
	}
}

// TestCompareStallReplayProgress replays the identical interleaving
// against the default progress-aware deadlines: expired windows whose
// peer demonstrably kept working re-arm instead of fail-signalling, so
// the pair rides out the crawl and every output is eventually matched
// and dispatched. This is the fix: same inputs, same link behaviour, no
// wedge.
func TestCompareStallReplayProgress(t *testing.T) {
	e := newEnv(t)
	sink := newAppSink()
	cfg := e.pairConfig("P", func() sm.Machine { return newEchoMachine("res", "app") })
	cfg.Delta = 60 * time.Millisecond
	cfg.OnFailSignal = func(reason string) { t.Errorf("progress-aware pair fail-signalled during a benign crawl: %s", reason) }
	rc := NewReceiver(e.dir, e.keys, sink.onOutput, sink.onFail)
	e.dir.RegisterPlain("app", "app")
	e.net.Register("app", rc.Handle)

	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	const inputs = 120
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		feedPair(t, e, "P", inputs, 10*time.Millisecond)
	}()
	rampSyncLink(e, "P", 10, 120*time.Millisecond, 30*time.Millisecond)
	wg.Wait()

	// Every input's output must eventually clear Compare and reach the
	// app, despite every deadline window having expired at least once.
	sink.waitOutputs(t, inputs, 15*time.Second)
	if pair.Failed() {
		t.Fatal("progress-aware pair fail-signalled; the crawl should have been ridden out")
	}
}

// TestCompareSkipDetection pins the promptness half of the progress-aware
// discipline: candidates arrive in output-sequence order on a FIFO link,
// so a candidate for sequence S proves every unmatched local candidate
// below S can never match (peer divergence or sync-link loss — both
// signal-worthy). The leader's handler is interposed to swallow exactly
// one single-signed candidate, the deterministic stand-in for a frame
// lost across a reconnect.
func TestCompareSkipDetection(t *testing.T) {
	e := newEnv(t)
	var failReason atomic.Value
	cfg := e.pairConfig("P", func() sm.Machine { return newEchoMachine("res", "sinkhole") })
	cfg.OnFailSignal = func(reason string) { failReason.Store(reason) }
	e.dir.RegisterPlain("sinkhole", "sinkhole")
	e.net.Register("sinkhole", func(transport.Message) {})

	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	// Interpose the leader: drop the follower's second candidate.
	var singles atomic.Uint64
	e.net.Register(LeaderAddr("P"), func(msg transport.Message) {
		if msg.Kind == MsgSingle && singles.Add(1) == 2 {
			return // lost across the "reconnect"
		}
		pair.Leader.handle(msg)
	})

	feedPair(t, e, "P", 4, 5*time.Millisecond)

	deadline := time.Now().Add(5 * time.Second)
	for !pair.Failed() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !pair.Failed() {
		t.Fatal("leader never detected the skipped candidate")
	}
	if r, _ := failReason.Load().(string); r != "" {
		t.Logf("skip detected: %s", r)
	}
}
