package fsnewtop

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/codec"
	"fsnewtop/internal/faults"
	"fsnewtop/internal/group"
	"fsnewtop/internal/sm"
	"fsnewtop/internal/trace"
	"fsnewtop/transport"
)

// submissions records what a window hands its pair, standing in for the
// signing client.
type submissions struct {
	mu   sync.Mutex
	sent []sm.Input // Kind and Payload of each submission
	fail error      // returned (and nothing recorded) while set
}

func (s *submissions) send(kind string, payload []byte, _ []codec.Region) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail != nil {
		return s.fail
	}
	s.sent = append(s.sent, sm.Input{Kind: kind, Payload: payload})
	return nil
}

func (s *submissions) setFail(err error) {
	s.mu.Lock()
	s.fail = err
	s.mu.Unlock()
}

// kinds returns the kinds submitted so far, a batch rendered with its size.
func (s *submissions) kinds(t *testing.T) []string {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.sent))
	for i, in := range s.sent {
		out[i] = in.Kind
		if in.Kind == group.KindBatch {
			bm, err := group.UnmarshalBatchMsg(in.Payload)
			if err != nil {
				t.Fatalf("submission %d: %v", i, err)
			}
			out[i] = fmt.Sprintf("%s×%d", in.Kind, len(bm.Items))
		}
	}
	return out
}

// newTestWindow starts a window on a manual clock that only the test
// advances, so every flush below has exactly one possible cause.
func newTestWindow(t *testing.T, delta time.Duration) (*window, *submissions, *clock.Manual) {
	t.Helper()
	clk := clock.NewManual()
	subs := &submissions{}
	w := newWindow(clk, delta, subs.send)
	t.Cleanup(w.close)
	return w, subs, clk
}

func mcast(t *testing.T, w *window, payload []byte) {
	t.Helper()
	if err := w.submit(group.KindMcast, payload, nil); err != nil {
		t.Fatal(err)
	}
}

func (w *window) pendingLen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestBatchWindowCoalescesBursts proves the window amortizes: a burst
// behind an in-flight round reaches the pair as one KindBatch input, in
// submission order, the moment that round's own delivery returns.
func TestBatchWindowCoalescesBursts(t *testing.T) {
	w, subs, _ := newTestWindow(t, time.Second)
	const burst = 20
	for i := 0; i < burst; i++ {
		mcast(t, w, []byte(fmt.Sprintf("p%02d", i)))
	}
	if got := subs.kinds(t); !reflect.DeepEqual(got, []string{group.KindMcast}) {
		t.Fatalf("before the round returned the pair saw %v, want the first multicast alone", got)
	}
	w.ownDelivered()
	want := []string{group.KindMcast, fmt.Sprintf("%s×%d", group.KindBatch, burst-1)}
	if got := subs.kinds(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the round returned the pair saw %v, want %v", got, want)
	}
	bm, _ := group.UnmarshalBatchMsg(subs.sent[1].Payload)
	for i, it := range bm.Items {
		if want := fmt.Sprintf("p%02d", i+1); it.Kind != group.KindMcast || string(it.Payload) != want {
			t.Fatalf("batch item %d = %s %q, want %s %q", i, it.Kind, it.Payload, group.KindMcast, want)
		}
	}
	// The batch's items are all in flight: only the last one's return
	// reopens the idle path.
	for i := 0; i < burst-2; i++ {
		w.ownDelivered()
	}
	mcast(t, w, []byte("late"))
	if got := len(subs.kinds(t)); got != 2 {
		t.Fatalf("a multicast behind an in-flight batch went out at once (%d submissions)", got)
	}
	w.ownDelivered()
	if got := subs.kinds(t); got[len(got)-1] != group.KindMcast {
		t.Fatalf("a window of one did not go out as a plain multicast: %v", got)
	}
}

// TestBatchWindowCapsFlushInline pins both size caps: the window flushes
// on the submission that reaches maxBatchMsgs messages or maxBatchBytes
// bytes, without waiting for a return or the backstop.
func TestBatchWindowCapsFlushInline(t *testing.T) {
	w, subs, _ := newTestWindow(t, time.Second)
	for i := 0; i <= maxBatchMsgs; i++ {
		mcast(t, w, []byte{byte(i)})
	}
	want := []string{group.KindMcast, fmt.Sprintf("%s×%d", group.KindBatch, maxBatchMsgs)}
	if got := subs.kinds(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("message cap: the pair saw %v, want %v", got, want)
	}

	w, subs, _ = newTestWindow(t, time.Second)
	half := make([]byte, maxBatchBytes/2)
	for i := 0; i < 3; i++ {
		mcast(t, w, half)
	}
	want = []string{group.KindMcast, fmt.Sprintf("%s×2", group.KindBatch)}
	if got := subs.kinds(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("byte cap: the pair saw %v, want %v", got, want)
	}
}

// TestBatchWindowMaxDelayFlushWhenIdle covers the backstop: a window whose
// round never returns flushes at δ and not a nanosecond before, and the
// flush resets the in-flight count.
func TestBatchWindowMaxDelayFlushWhenIdle(t *testing.T) {
	const delta = 50 * time.Millisecond
	w, subs, clk := newTestWindow(t, delta)
	for i := 0; i < 3; i++ {
		mcast(t, w, []byte{byte(i)})
	}
	waitFor(t, "the backstop timer", func() bool { return clk.Pending() == 1 })
	clk.Advance(delta - time.Nanosecond)
	if p, n := clk.Pending(), w.pendingLen(); p != 1 || n != 2 {
		t.Fatalf("window flushed before δ (%d timers armed, %d pending)", p, n)
	}
	clk.Advance(time.Nanosecond)
	waitFor(t, "the δ backstop flush", func() bool { return w.pendingLen() == 0 })
	want := []string{group.KindMcast, fmt.Sprintf("%s×2", group.KindBatch)}
	if got := subs.kinds(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("the pair saw %v, want %v", got, want)
	}
	w.mu.Lock()
	inflight := w.inflight
	w.mu.Unlock()
	if inflight != 2 {
		t.Fatalf("in flight after the backstop flush = %d, want the batch's 2 (the stalled round forgotten)", inflight)
	}
}

// TestWindowStaleBackstopSparesYoungWindow: a backstop callback that lost
// the race with a flush — it was already running when the window emptied
// and reopened — must not flush the younger window, which keeps its own
// deadline δ after it opened.
func TestWindowStaleBackstopSparesYoungWindow(t *testing.T) {
	const delta = 50 * time.Millisecond
	w, subs, clk := newTestWindow(t, delta)
	mcast(t, w, []byte("a")) // the round in flight
	mcast(t, w, []byte("b")) // opens the window
	clk.Advance(delta / 2)
	w.ownDelivered() // the round returns: "b" goes out, the window empties
	mcast(t, w, []byte("c"))
	clk.Advance(delta / 2) // the first window's deadline
	w.expire()             // its callback, arriving late
	if n := w.pendingLen(); n != 1 {
		t.Fatalf("a stale backstop flushed a window open for δ/2 (%d pending, the pair saw %v)", n, subs.kinds(t))
	}
	if p := clk.Pending(); p != 1 {
		t.Fatalf("%d backstops armed for the young window, want 1", p)
	}
	clk.Advance(delta/2 - time.Nanosecond)
	if n := w.pendingLen(); n != 1 {
		t.Fatal("the young window flushed before its own δ")
	}
	clk.Advance(time.Nanosecond)
	if n := w.pendingLen(); n != 0 {
		t.Fatal("the young window outlived its own δ")
	}
}

// TestWindowOpenOnlyBehindARound checks the invariant that makes δ the
// window's only backstop: whenever a multicast is pending, a round is in
// flight. Random sequences of multicasts, joins, own deliveries (stale ones
// included), fail-signal flushes, backstop expiries and failing sends run
// on a manual clock, and the invariant is checked after every step.
func TestWindowOpenOnlyBehindARound(t *testing.T) {
	const delta = 50 * time.Millisecond
	broken := errors.New("pair unreachable")
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, subs, clk := newTestWindow(t, delta)
		for step := 0; step < 300; step++ {
			subs.setFail(nil)
			if rng.Intn(10) == 0 {
				subs.setFail(broken)
			}
			var op string
			switch r := rng.Intn(100); {
			case r < 50:
				op = "multicast"
				_ = w.submit(group.KindMcast, make([]byte, rng.Intn(64)), nil)
			case r < 55:
				op = "join"
				_ = w.submit(group.KindJoin, nil, nil)
			case r < 80:
				op = "own delivery"
				w.ownDelivered()
			case r < 88:
				op = "fail-signal flush"
				w.flush()
			default:
				op = "backstop"
				subs.setFail(nil)
				if w.pendingLen() > 0 {
					waitFor(t, "the backstop timer", func() bool { return clk.Pending() == 1 })
				}
				clk.Advance(delta)
				waitFor(t, "the backstop flush", func() bool { return w.pendingLen() == 0 })
			}
			w.mu.Lock()
			pending, inflight := len(w.pending), w.inflight
			w.mu.Unlock()
			if pending > 0 && inflight == 0 {
				t.Fatalf("seed %d step %d (%s): %d multicasts pending with no round in flight", seed, step, op, pending)
			}
		}
		w.close()
	}
}

// TestBatchWindowFlushesOnFailSignal covers the mid-window fail-signal
// edge: when a fail-signal reaches the member while a window is open, the
// window flushes at once. The clock never advances, so nothing but the
// fail-signal path can empty it.
func TestBatchWindowFlushesOnFailSignal(t *testing.T) {
	w, subs, _ := newTestWindow(t, time.Hour)
	n := &NSO{failures: make(chan string, 1), win: w}
	for i := 0; i < 4; i++ {
		mcast(t, w, []byte{byte(i)})
	}
	if w.pendingLen() != 3 {
		t.Fatal("window did not accumulate (test premise broken)")
	}
	n.onFailSignal("m00")
	if p := w.pendingLen(); p != 0 {
		t.Fatalf("window still holds %d submissions after a fail-signal", p)
	}
	want := []string{group.KindMcast, fmt.Sprintf("%s×3", group.KindBatch)}
	if got := subs.kinds(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("the pair saw %v, want %v", got, want)
	}
	if got := <-n.FailSignals(); got != "m00" {
		t.Fatalf("fail-signal surfaced as %q", got)
	}
}

// TestWindowReportsFailures: nothing the window accepted is lost silently.
// A submission after close fails with transport.ErrClosed, and a flush
// that failed in the background (here: on a returning round) is reported
// by the next submission, which is itself refused.
func TestWindowReportsFailures(t *testing.T) {
	w, subs, _ := newTestWindow(t, time.Hour)
	for i := 0; i < 3; i++ {
		mcast(t, w, []byte{byte(i)})
	}
	broken := errors.New("pair unreachable")
	subs.setFail(broken)
	w.ownDelivered()
	subs.setFail(nil)
	if err := w.submit(group.KindMcast, []byte("next"), nil); !errors.Is(err, broken) {
		t.Fatalf("submission after a failed flush returned %v, want %v", err, broken)
	}
	if err := w.submit(group.KindMcast, []byte("after"), nil); err != nil {
		t.Fatalf("the failure was reported twice: %v", err)
	}
	w.close()
	if err := w.submit(group.KindMcast, []byte("closed"), nil); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("submission after close returned %v, want transport.ErrClosed", err)
	}
}

// TestMulticastAfterCloseFails is the end-to-end form: a closed member's
// Multicast reports failure instead of vanishing into a dead window.
func TestMulticastAfterCloseFails(t *testing.T) {
	c := newCluster(t, 2, nil)
	c.joinAll(t, "g")
	n := c.nsos[c.members[0]]
	n.Close()
	if err := n.Multicast("g", group.TotalSym, []byte("x")); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Multicast on a closed member returned %v, want transport.ErrClosed", err)
	}
}

// TestBatchedClusterTotalOrder runs the symmetric total-order workload as
// a burst from every member — the window batches behind every in-flight
// round — and requires identical delivery order everywhere, nothing lost,
// no fail-signals.
func TestBatchedClusterTotalOrder(t *testing.T) {
	c := newCluster(t, 3, nil)
	c.joinAll(t, "g")
	const per = 10
	for i := 0; i < per; i++ {
		for _, m := range c.members {
			if err := c.nsos[m].Multicast("g", group.TotalSym, []byte(fmt.Sprintf("%s#%d", m, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := per * len(c.members)
	ref := c.cols[c.members[0]].waitN(t, total, 30*time.Second)
	for _, m := range c.members[1:] {
		got := c.cols[m].waitN(t, total, 30*time.Second)
		if !reflect.DeepEqual(got[:total], ref[:total]) {
			t.Fatalf("total order differs between %s and %s:\n%v\n%v", c.members[0], m, ref[:total], got[:total])
		}
	}
	for _, m := range c.members {
		if c.nsos[m].Pair().Failed() {
			t.Fatalf("pair %s fail-signalled in a healthy batched run", m)
		}
	}
	if batches := c.reissued(group.KindBatch); batches == 0 {
		t.Fatal("a burst from every member produced no batched submission")
	}
}

// TestIdleMemberNeverBatches is the "zero added latency when idle" claim,
// checked as a count: members that each wait for their own multicast to
// come back before sending the next — paced slower than a round — submit
// every multicast alone, the moment it is made.
func TestIdleMemberNeverBatches(t *testing.T) {
	c := newCluster(t, 3, nil)
	c.joinAll(t, "g")
	const per = 8
	var wg sync.WaitGroup
	for _, m := range c.members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				payload := fmt.Sprintf("%s#%d", m, i)
				if err := c.nsos[m].Multicast("g", group.TotalSym, []byte(payload)); err != nil {
					t.Error(err)
					return
				}
				for deadline := time.Now().Add(30 * time.Second); !c.cols[m].has(payload); time.Sleep(100 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Errorf("%s: own multicast %q never came back", m, payload)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if batches := c.reissued(group.KindBatch); batches != 0 {
		t.Fatalf("members paced slower than a round submitted %d batches, want 0", batches)
	}
	if plain := c.reissued(group.KindMcast); plain != per*len(c.members) {
		t.Fatalf("%d plain multicast submissions, want %d", plain, per*len(c.members))
	}
}

// TestCoalesceOutputsMergesSameDestRuns pins the coalescer's grouping:
// adjacent outputs to the same destination list merge, anything else
// breaks the run.
func TestCoalesceOutputsMergesSameDestRuns(t *testing.T) {
	ab := []string{"a", "b"}
	cd := []string{"c", "d"}
	outs := []sm.Output{
		{Kind: group.KindData, To: ab, Payload: []byte("1")},
		{Kind: group.KindAck, To: ab, Payload: []byte("2")},
		{Kind: group.KindData, To: cd, Payload: []byte("3")},
		{Kind: group.KindData, To: ab, Payload: []byte("4")},
	}
	merged := coalesceOutputs(outs)
	if len(merged) != 3 {
		t.Fatalf("got %d outputs, want 3: %v", len(merged), merged)
	}
	if merged[0].Kind != group.KindBatch || !reflect.DeepEqual(merged[0].To, ab) {
		t.Fatalf("first output not an ab-batch: %+v", merged[0])
	}
	bm, err := group.UnmarshalBatchMsg(merged[0].Payload)
	if err != nil {
		t.Fatalf("decoding merged batch: %v", err)
	}
	if len(bm.Items) != 2 || bm.Items[0].Kind != group.KindData || bm.Items[1].Kind != group.KindAck {
		t.Fatalf("bad merged items: %+v", bm.Items)
	}
	// The lone cd output and the trailing ab output pass through untouched.
	if merged[1].Kind != group.KindData || !reflect.DeepEqual(merged[1].To, cd) {
		t.Fatalf("second output mangled: %+v", merged[1])
	}
	if merged[2].Kind != group.KindData || string(merged[2].Payload) != "4" {
		t.Fatalf("third output mangled: %+v", merged[2])
	}
}

// TestCoalesceOutputsRespectsCaps pins both caps: a run splits at
// maxBatchMsgs outputs, and an output that would push a run past
// maxBatchBytes starts the next one.
func TestCoalesceOutputsRespectsCaps(t *testing.T) {
	to := []string{"a"}
	var outs []sm.Output
	for i := 0; i <= maxBatchMsgs; i++ {
		outs = append(outs, sm.Output{Kind: group.KindData, To: to, Payload: []byte{byte(i)}})
	}
	merged := coalesceOutputs(outs)
	if len(merged) != 2 || merged[0].Kind != group.KindBatch || merged[1].Kind != group.KindData {
		t.Fatalf("%d outputs under a %d-item cap gave %d merged, want a batch and a single", len(outs), maxBatchMsgs, len(merged))
	}

	big := bytes.Repeat([]byte{1}, maxBatchBytes/2)
	outs = []sm.Output{
		{Kind: group.KindData, To: to, Payload: big},
		{Kind: group.KindData, To: to, Payload: big},
		{Kind: group.KindData, To: to, Payload: big},
	}
	merged = coalesceOutputs(outs)
	if len(merged) != 2 || merged[0].Kind != group.KindBatch || merged[1].Kind != group.KindData {
		t.Fatalf("byte cap not honoured: %d outputs", len(merged))
	}
}

// TestCoalescerUnderSwitch builds a replica the way a fault-planned pair
// does — faults.Switch around the coalescer around the machine — and
// checks both what the wrapper is for and what it must not break: a
// batched step leaves as a batched output, and the trace ring handed to
// the outermost wrapper still reaches the machine.
func TestCoalescerUnderSwitch(t *testing.T) {
	sw := faults.NewSwitch(coalescer{group.New(group.Config{Self: "a", Mode: group.SuspectFailSignal})})
	ring := trace.NewRegistry(0, nil).Ring("a")
	sw.SetTrace(ring)
	sw.Step(sm.Input{Kind: group.KindJoin, Payload: group.JoinReq{Group: "g", Members: []string{"a", "b"}}.Marshal()})

	var items []group.BatchItem
	for i := 0; i < 3; i++ {
		req := group.McastReq{Group: "g", Service: group.TotalSym, Payload: []byte{byte(i)}}
		items = append(items, group.BatchItem{Kind: group.KindMcast, Payload: req.Marshal()})
	}
	outs := sw.Step(sm.Input{Kind: group.KindBatch, Payload: group.BatchMsg{Items: items}.Marshal()})
	if len(outs) != 1 || outs[0].Kind != group.KindBatch {
		t.Fatalf("three multicasts in one step left as %d outputs, want one KindBatch: %+v", len(outs), outs)
	}
	if len(ring.Snapshot()) == 0 {
		t.Fatal("no trace event reached the ring through Switch and coalescer")
	}
}
