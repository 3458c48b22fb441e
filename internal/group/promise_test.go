package group

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	failsignal "fsnewtop/internal/core"
	"fsnewtop/internal/sm"
	"fsnewtop/internal/trace"
)

// The tests in this file pin the symmetric order's one-promise rule: an
// accept acknowledges only when (clock, send watermark) differs from the
// acknowledgement the member last broadcast, and the two things the
// repeats used to do by accident — repair a lost promise, re-evaluate the
// order after a watermark moved — happen on purpose.

func mcastInput(svc Service, payload string) sm.Input {
	return sm.Input{Kind: KindMcast, Payload: McastReq{Group: "g", Service: svc, Payload: []byte(payload)}.Marshal()}
}

func memberNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
	}
	return names
}

// symRound has every member multicast once before anything is routed —
// the concurrent-sender shape of the closed-loop workloads — and runs the
// cluster to quiescence.
func symRound(c *tCluster, members []string, round int) {
	for _, n := range members {
		c.submit(n, mcastInput(TotalSym, fmt.Sprintf("%s#%d", n, round)))
	}
	c.run()
}

// TestPromiseAckBudget prices the rule at ten members. Under concurrent
// senders most accepts leave the clock where it was, so the group emits at
// most 2 acknowledgements per multicast where an ack per accept emits 9.
// A multicast into a quiet group is the latency path and is unchanged:
// each of the n-1 receivers acknowledges in its own accept step.
func TestPromiseAckBudget(t *testing.T) {
	names := memberNames(10)
	c := newTCluster(t, SuspectPing, names...)
	c.joinAll("g")
	const rounds = 20
	for r := 0; r < rounds; r++ {
		symRound(c, names, r)
	}
	multicasts := rounds * len(names)
	ref := c.payloads(names[0])
	if len(ref) != multicasts {
		t.Fatalf("%s delivered %d of %d", names[0], len(ref), multicasts)
	}
	for _, n := range names[1:] {
		if got := c.payloads(n); !reflect.DeepEqual(got, ref) {
			t.Fatalf("order differs between %s and %s", names[0], n)
		}
	}
	if perMulticast := float64(c.emitted[KindAck]) / float64(multicasts); perMulticast > 2 {
		t.Fatalf("%.2f acks per multicast under concurrent senders, want at most 2 (an ack per accept is 9)", perMulticast)
	}
	var elided uint64
	for _, n := range names {
		elided += c.machines[n].AckStats().Elided
	}
	if want := uint64(multicasts*(len(names)-1) - c.emitted[KindAck]); elided != want {
		t.Fatalf("machines count %d elided acks, outputs say %d", elided, want)
	}

	c.submit(names[0], mcastInput(TotalSym, "quiet"))
	inFlight := c.queue
	c.queue = nil
	for _, msg := range inFlight {
		before := c.emitted[KindAck]
		c.submit(msg.to, sm.Input{Kind: msg.kind, From: msg.from, Payload: msg.payload})
		if got := c.emitted[KindAck] - before; got != 1 {
			t.Fatalf("%s acknowledged a quiescent multicast %d times in its accept step, want 1", msg.to, got)
		}
	}
	c.run()
	for _, n := range names {
		if got := c.payloads(n); len(got) != multicasts+1 || got[multicasts] != "quiet" {
			t.Fatalf("%s did not deliver the quiescent multicast", n)
		}
	}
}

// TestPromiseBatchedAcceptsCollapseToOneAck: several accepts in one step
// (a KindBatch input) that leave the clock unmoved are acknowledged once,
// not once per item.
func TestPromiseBatchedAcceptsCollapseToOneAck(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b")
	c.joinAll("g")
	for _, n := range c.names {
		var items []BatchItem
		for i := 0; i < 5; i++ {
			items = append(items, BatchItem{Kind: KindMcast, Payload: mcastInput(TotalSym, fmt.Sprintf("%s%d", n, i)).Payload})
		}
		c.submit(n, sm.Input{Kind: KindBatch, Payload: BatchMsg{Items: items}.Marshal()})
	}
	c.run()
	if got := c.emitted[KindAck]; got != 2 {
		t.Fatalf("two five-message batches drew %d acks, want one per receiver", got)
	}
	ref := c.payloads("a")
	if len(ref) != 10 || !reflect.DeepEqual(c.payloads("b"), ref) {
		t.Fatalf("a delivered %v, b delivered %v", ref, c.payloads("b"))
	}
}

// promiseState renders the ack bookkeeping of every group of m.
func promiseState(m *Machine) string {
	var b strings.Builder
	for _, name := range sortedKeys(m.groups) {
		g := m.groups[name]
		fmt.Fprintf(&b, "%s promised=%v stalled=%v;", name, g.promised, g.stalled)
	}
	return b.String()
}

// TestPromiseStateIsReplicaIdentical is R1 for the rule: the standing
// promise is machine state, so two replicas fed one input sequence —
// through a snapshot install, a view change with a flush, a lost promise
// and its tick repair — emit byte-identical outputs and hold identical
// promise state after every step.
func TestPromiseStateIsReplicaIdentical(t *testing.T) {
	c := newTCluster(t, SuspectFailSignal, "a", "b", "c")
	c.joinAll("g")
	for r := 0; r < 3; r++ {
		symRound(c, []string{"a", "b", "c"}, r)
	}
	c.addMachine("d", SuspectFailSignal)
	c.submit("d", sm.Input{Kind: KindJoinExisting, Payload: JoinExistingReq{Group: "g", Contacts: []string{"a", "b", "c"}}.Marshal()})
	symRound(c, []string{"a", "b", "c"}, 3)
	c.tick(100 * time.Millisecond)
	symRound(c, []string{"a", "b", "c", "d"}, 4)
	// c goes silent with a message pending everywhere, then fail-signals:
	// the survivors flush it. One ack d→a is lost on the way, so a's
	// order stays blocked until the tick repair.
	c.drop = func(from, to, kind string) bool { return from == "c" || to == "c" }
	c.mcast("a", "g", TotalSym, "flushed")
	for _, n := range []string{"a", "b", "d"} {
		c.submit(n, sm.Input{Kind: failsignal.InputFailSignal, From: "c"})
	}
	c.run()
	lost := false
	c.drop = func(from, to, kind string) bool {
		if from == "c" || to == "c" {
			return true
		}
		if kind == KindAck && from == "d" && to == "a" && !lost {
			lost = true
			return true
		}
		return false
	}
	c.mcast("b", "g", TotalSym, "repaired")
	c.tick(10 * time.Millisecond)
	c.tick(200 * time.Millisecond)
	ref := c.payloads("b")
	if !lost || ref[len(ref)-1] != "repaired" || !isSuffix(c.payloads("a"), []string{"flushed", "repaired"}) {
		t.Fatalf("scenario did not run as written: lost=%v a=%v b=%v", lost, c.payloads("a"), ref)
	}
	if c.machines["a"].AckStats().Resent == 0 {
		t.Fatal("a never re-announced: the script does not cover the tick repair")
	}

	for _, name := range []string{"a", "d"} {
		x := New(Config{Self: name, Mode: SuspectFailSignal})
		y := New(Config{Self: name, Mode: SuspectFailSignal})
		for i, in := range c.inputsOf[name] {
			outX, outY := x.Step(in), y.Step(in)
			if len(outX) != len(outY) {
				t.Fatalf("%s step %d: %d outputs vs %d", name, i, len(outX), len(outY))
			}
			for j := range outX {
				if !sm.OutputsEqual(outX[j], outY[j]) {
					t.Fatalf("%s step %d output %d: %q vs %q", name, i, j, outX[j].Kind, outY[j].Kind)
				}
			}
			if px, py := promiseState(x), promiseState(y); px != py {
				t.Fatalf("%s step %d: promise state diverged:\n%s\n%s", name, i, px, py)
			}
		}
		if got, want := promiseState(x), promiseState(c.machines[name]); got != want {
			t.Fatalf("%s: replay ended at %s, the live machine at %s", name, got, want)
		}
	}
}

// repeatScenario is the run recorded in testdata/ack_per_accept_d.txt:
// concurrent symmetric-order rounds among four members with reliable and
// causal traffic mixed in, a member that dies with a message pending (so
// the view change flushes it), and more rounds among the survivors.
func repeatScenario(t testing.TB) *tCluster {
	c := newTCluster(t, SuspectFailSignal, "a", "b", "c", "d")
	c.joinAll("g")
	for r := 0; r < 6; r++ {
		for _, n := range c.names {
			c.submit(n, mcastInput(TotalSym, fmt.Sprintf("%s#%d", n, r)))
		}
		if r%2 == 1 {
			c.submit("a", mcastInput(Reliable, fmt.Sprintf("rel#%d", r)))
			c.submit("c", mcastInput(Causal, fmt.Sprintf("cau#%d", r)))
		}
		c.run()
		c.tick(50 * time.Millisecond)
	}
	c.drop = func(from, to, kind string) bool { return from == "c" || to == "c" }
	c.mcast("a", "g", TotalSym, "stuck")
	for _, n := range []string{"a", "b", "d"} {
		c.submit(n, sm.Input{Kind: failsignal.InputFailSignal, From: "c"})
	}
	c.run()
	for r := 6; r < 10; r++ {
		symRound(c, []string{"a", "b", "d"}, r)
		c.tick(50 * time.Millisecond)
	}
	return c
}

// readScript parses a recorded input script: one "kind from hex(payload)"
// line per input, "-" for an empty field, '#' comments.
func readScript(t *testing.T, path string) []sm.Input {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var script []sm.Input
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("%s: bad line %q", path, line)
		}
		in := sm.Input{Kind: f[0]}
		if f[1] != "-" {
			in.From = f[1]
		}
		if f[2] != "-" {
			if in.Payload, err = hex.DecodeString(f[2]); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		script = append(script, in)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return script
}

// effClocks is every member's effective observed clock at m, in member
// order — the quantity the delivery condition is a function of.
func effClocks(m *Machine) []uint64 {
	g, ok := m.groups["g"]
	if !ok {
		return nil
	}
	out := make([]uint64, 0, len(g.members))
	for _, mem := range g.members {
		if mem == m.cfg.Self {
			out = append(out, g.clock)
		} else {
			out = append(out, g.stream(mem).effLastTS())
		}
	}
	return out
}

// TestPromiseRepeatIsNoOp is the safety argument as a test. The recording
// is member d's input script from repeatScenario run at the last commit
// that acknowledged every accept (d678227). A repeat is an acknowledgement
// byte-identical to the previous one from the same sender. Receiver side:
// a fresh d fed the full recording and a fresh d fed the recording minus
// the repeats emit identical outputs (deliveries included) and hold
// identical effective clocks after every step, and each repeat is a step
// with no output and no clock change. Sender side: the same scenario on
// today's machines feeds d exactly the recording minus the repeats (a
// view install's announcement never counts as one).
func TestPromiseRepeatIsNoOp(t *testing.T) {
	recorded := readScript(t, "testdata/ack_per_accept_d.txt")
	full := New(Config{Self: "d", Mode: SuspectFailSignal})
	lean := New(Config{Self: "d", Mode: SuspectFailSignal})
	lastAck := make(map[string][]byte)
	var kept []sm.Input
	repeats := 0
	for i, in := range recorded {
		if in.Kind == KindViewInstall {
			// An install announces whatever was promised before it: the
			// membership it is addressed to has changed.
			lastAck = make(map[string][]byte)
		}
		if in.Kind == KindAck {
			prev, seen := lastAck[in.From]
			lastAck[in.From] = in.Payload
			if seen && bytes.Equal(prev, in.Payload) {
				repeats++
				before := effClocks(full)
				if outs := full.Step(in); len(outs) != 0 {
					t.Fatalf("step %d: repeated ack from %s produced %d outputs", i, in.From, len(outs))
				}
				if after := effClocks(full); !reflect.DeepEqual(before, after) {
					t.Fatalf("step %d: repeated ack from %s moved the clocks %v -> %v", i, in.From, before, after)
				}
				continue
			}
		}
		kept = append(kept, in)
		outF, outL := full.Step(in), lean.Step(in)
		if len(outF) != len(outL) {
			t.Fatalf("step %d (%s): %d outputs with the repeats, %d without", i, in.Kind, len(outF), len(outL))
		}
		for j := range outF {
			if !sm.OutputsEqual(outF[j], outL[j]) {
				t.Fatalf("step %d (%s) output %d differs: %q vs %q", i, in.Kind, j, outF[j].Kind, outL[j].Kind)
			}
		}
		if f, l := effClocks(full), effClocks(lean); !reflect.DeepEqual(f, l) {
			t.Fatalf("step %d (%s): effective clocks %v with the repeats, %v without", i, in.Kind, f, l)
		}
	}
	if repeats*3 < len(recorded) {
		t.Fatalf("only %d of %d recorded inputs are repeats: the recording does not exercise the rule", repeats, len(recorded))
	}

	live := repeatScenario(t).inputsOf["d"]
	if len(live) != len(kept) {
		t.Fatalf("today's d received %d inputs, the recording minus its %d repeats has %d", len(live), repeats, len(kept))
	}
	for i := range kept {
		if live[i].Kind != kept[i].Kind || live[i].From != kept[i].From || !bytes.Equal(live[i].Payload, kept[i].Payload) {
			t.Fatalf("input %d: today %s from %q, recorded %s from %q", i, live[i].Kind, live[i].From, kept[i].Kind, kept[i].From)
		}
	}
}

// TestPromiseLostLastAckIsRepaired: the promise c sent b is lost and
// nothing follows it. c has delivered and has no reason to speak again; b,
// whose order is blocked on c, asks for the promise after resendAfter and
// c's answer releases the message. (An ack per accept never repaired
// this.)
func TestPromiseLostLastAckIsRepaired(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	ring := trace.NewRegistry(0, func() time.Time { return c.now }).Ring("b")
	c.machines["b"].SetTrace(ring)
	c.joinAll("g")
	lost := false
	c.drop = func(from, to, kind string) bool {
		if kind == KindAck && from == "c" && to == "b" && !lost {
			lost = true
			return true
		}
		return false
	}
	c.mcast("a", "g", TotalSym, "m")
	if !lost || len(c.payloads("a")) != 1 || len(c.payloads("c")) != 1 || len(c.payloads("b")) != 0 {
		t.Fatalf("want m delivered at a and c and blocked at b: a=%v b=%v c=%v", c.payloads("a"), c.payloads("b"), c.payloads("c"))
	}
	c.tick(10 * time.Millisecond)
	if got := c.machines["b"].AckStats().Resent; got != 0 {
		t.Fatalf("b re-announced %d times before resendAfter", got)
	}
	c.tick(200 * time.Millisecond)
	if got := c.payloads("b"); !reflect.DeepEqual(got, []string{"m"}) {
		t.Fatalf("b delivered %v one resendAfter after the loss", got)
	}
	if got := c.machines["b"].AckStats(); got.Resent != 1 || got.Sent != 1 {
		t.Fatalf("b's ack counters %+v, want one sent and one re-announced", got)
	}
	// The post-mortem reads "c promised once and the copy was lost": b
	// blocked on c, re-announced, and only then applied c's promise.
	var story []string
	for _, ev := range ring.Snapshot() {
		switch ev.Kind {
		case trace.EvRoundBlocked, trace.EvAckResend:
			story = append(story, ev.Kind.String()+" "+ev.Note)
		case trace.EvAckIn:
			if ev.Note == "c" {
				story = append(story, "ack-in c")
			}
		}
	}
	if want := []string{"round-blocked g:c", "ack-resend g:c", "ack-in c"}; !reflect.DeepEqual(story, want) {
		t.Fatalf("b's trace reads %v, want %v", story, want)
	}
	// Steady state is quiet: more ticks re-announce nothing.
	for i := 0; i < 5; i++ {
		c.tick(300 * time.Millisecond)
	}
	for _, n := range c.names {
		if st := c.machines[n].AckStats(); st.Resent > 1 || (n != "b" && st.Resent != 0) {
			t.Fatalf("%s re-announced in a delivered group: %+v", n, st)
		}
	}
}

// TestPromiseLostTailDataIsRepaired: a's last message never reaches c and
// nothing follows it, so no later ack carries a's send watermark to c. An
// own data send is not a promise — the re-announcement a and b make while
// blocked on c is what tells c the sequence exists.
func TestPromiseLostTailDataIsRepaired(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	c.joinAll("g")
	lost := false
	c.drop = func(from, to, kind string) bool {
		if kind == KindData && from == "a" && to == "c" && !lost {
			lost = true
			return true
		}
		return false
	}
	c.mcast("a", "g", TotalSym, "tail")
	c.tick(10 * time.Millisecond)
	for _, n := range c.names {
		if got := c.payloads(n); len(got) != 0 {
			t.Fatalf("%s delivered %v without c's promise", n, got)
		}
	}
	c.tick(200 * time.Millisecond) // a and b re-announce; c sees a's watermark
	c.tick(10 * time.Millisecond)  // c NACKs the gap; a retransmits
	for _, n := range c.names {
		if got := c.payloads(n); !reflect.DeepEqual(got, []string{"tail"}) {
			t.Fatalf("%s delivered %v after the tail repair", n, got)
		}
	}
}

// TestPromiseJoinerAckDroppedInOldViewIsRepaired: a member that installs
// the admitting view late drops the joiner's install acknowledgement (the
// joiner is not a member yet) and whatever the joiner promises until
// then. Nothing the joiner sends afterwards repeats those promises, so
// the late member asks for the current one: delivery resumes within one
// resendAfter of its install.
func TestPromiseJoinerAckDroppedInOldViewIsRepaired(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	c.joinAll("g")
	c.mcast("a", "g", TotalSym, "pre")
	c.addMachine("d", SuspectPing)
	c.submit("d", sm.Input{Kind: KindJoinExisting, Payload: JoinExistingReq{Group: "g", Contacts: []string{"a", "b", "c"}}.Marshal()})
	// Route everything except the install addressed to b.
	var held *routed
	for len(c.queue) > 0 {
		msg := c.queue[0]
		c.queue = c.queue[1:]
		if msg.kind == KindViewInstall && msg.to == "b" {
			held = &routed{from: msg.from, to: msg.to, kind: msg.kind, payload: msg.payload}
			continue
		}
		c.submit(msg.to, sm.Input{Kind: msg.kind, From: msg.from, Payload: msg.payload})
	}
	if held == nil || c.lastView("d").ViewID != 2 || c.lastView("b").ViewID != 1 {
		t.Fatalf("want d admitted and b still in view 1: d=%+v b=%+v", c.lastView("d"), c.lastView("b"))
	}
	// Traffic in the new view: d's promise for it reaches b too early.
	c.mcast("a", "g", TotalSym, "post")
	for _, n := range []string{"a", "c"} {
		if got := c.payloads(n); !reflect.DeepEqual(got, []string{"pre", "post"}) {
			t.Fatalf("%s delivered %v, want [pre post]", n, got)
		}
	}
	c.submit("b", sm.Input{Kind: held.kind, From: held.from, Payload: held.payload})
	c.run()
	if got := c.payloads("b"); !reflect.DeepEqual(got, []string{"pre"}) {
		t.Fatalf("b delivered %v: expected post to wait for d's promise", got)
	}
	c.tick(10 * time.Millisecond)
	c.tick(200 * time.Millisecond)
	if got := c.payloads("b"); !reflect.DeepEqual(got, []string{"pre", "post"}) {
		t.Fatalf("b delivered %v one resendAfter after installing", got)
	}
	if got := c.payloads("d"); !reflect.DeepEqual(got, []string{"post"}) {
		t.Fatalf("d delivered %v, want [post]", got)
	}
}

// TestPromiseDrainFollowsEveryAccept pins the drain invariant: whatever
// raises a member's effective clock re-evaluates the symmetric order in
// the same step. Here the raise is a *reliable* retransmission that brings b's
// intake up to the watermark of an ack it already holds; the blocked
// symmetric message must deliver in that step, not at the next ack —
// which, now that acks are not repeated, may never come.
func TestPromiseDrainFollowsEveryAccept(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b")
	c.joinAll("g")
	lost := false
	c.drop = func(from, to, kind string) bool {
		if kind == KindData && from == "a" && to == "b" && !lost {
			lost = true
			return true
		}
		return false
	}
	c.mcast("a", "g", Reliable, "rel") // never reaches b
	c.mcast("b", "g", TotalSym, "sym") // a's ack for it carries watermark 1
	if got := c.payloads("b"); len(got) != 0 {
		t.Fatalf("b delivered %v past a gated ack", got)
	}
	d := c.machines["a"].groups["g"].sent[1]
	c.submit("b", sm.Input{Kind: KindData, From: "a", Payload: d.Marshal()})
	if got := c.payloads("b"); !reflect.DeepEqual(got, []string{"rel", "sym"}) {
		t.Fatalf("b delivered %v in the step that filled the gap, want [rel sym]", got)
	}
}

// BenchmarkSymRoundN10 is one concurrent round at ten members on the
// in-memory router: every member multicasts once, then the group runs to
// quiescence. It reports the machine cost of an ordered multicast and the
// acknowledgements it drew (9 with an ack per accept).
func BenchmarkSymRoundN10(b *testing.B) {
	names := memberNames(10)
	c := newTCluster(b, SuspectPing, names...)
	c.joinAll("g")
	symRound(c, names, 0)
	acks := c.emitted[KindAck]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		symRound(c, names, i+1)
		for _, n := range names {
			c.delivered[n], c.inputsOf[n] = c.delivered[n][:0], c.inputsOf[n][:0]
		}
	}
	b.StopTimer()
	multicasts := float64(b.N * len(names))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/multicasts, "ns/multicast")
	b.ReportMetric(float64(c.emitted[KindAck]-acks)/multicasts, "acks/multicast")
}
