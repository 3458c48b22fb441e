package failsignal

import (
	"testing"
	"time"

	"fsnewtop/internal/codec"
	"fsnewtop/internal/sm"
)

// replyMachine answers every input with one output carrying the input's
// payload, from one reused output slice: the machine itself allocates
// nothing, so an allocation count over a pair round is the FSO's.
type replyMachine struct{ out []sm.Output }

func (m *replyMachine) Step(in sm.Input) []sm.Output {
	if in.Kind == sm.TickKind {
		return nil
	}
	m.out[0].Payload = in.Payload
	return m.out
}

// inputBudget is what TestInputAllocBudget allows one round: 9 measured
// (60 before kinds, sources and signers decoded against the name table,
// outputs were read without their destinations, watches and ICMP entries
// were reused; 31 before every loop re-aimed one timer instead of
// allocating one per wait, ~18 of them in the simulated network; 13
// before each output was encoded once, straight into its wire form, and
// a client request signed in the buffer it is sent in), plus 2 for the
// simulated network, whose per-message waits depend on timing.
const inputBudget = 11

// TestInputAllocBudget fences what one 16-byte FS input costs a pair end
// to end: the leader and the follower each take a copy (decode, verify,
// gate; the leader forwards it, the follower pools and relays it and
// takes the forward by compare), both step it and compare the output,
// both counter-sign and dispatch, and a receiver accepts the result.
// What is left is what leaves a node — the forward, the candidate, the
// double-signed output, the encoded output and its signed digest body —
// plus the follower's pooled entry, the receiver's decode and the
// simulated network's per-message cost. A decoded kind, source or signer
// comes from the name table, the output's destinations are never built,
// and deadlines reuse their watches.
func TestInputAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts differ under the race detector")
	}
	const kind = "core-alloc-test.kind" // a protocol interns its kinds; so does this test
	codec.Intern(kind)
	e := newEnv(t)
	src := e.addFakeFS("src")
	got := make(chan struct{}, 4)
	rc := NewReceiver(e.dir, e.keys, func(string, sm.Output) { got <- struct{}{} }, nil)
	e.dir.RegisterPlain("app", "app")
	e.net.Register("app", rc.Handle)
	cfg := e.pairConfig("p", func() sm.Machine {
		return &replyMachine{out: []sm.Output{{Kind: kind, To: []string{sm.LocalDelivery}}}}
	})
	cfg.LocalName = "app"
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pair.Close)

	const warm, runs = 50, 200
	type input struct{ viaL, viaF []byte }
	inputs := make([]input, warm+runs+1) // AllocsPerRun runs once more to warm up
	for i := range inputs {
		full := sm.MarshalOutput(sm.Output{Kind: kind, To: []string{"p"}, Payload: make([]byte, 16)})
		d := formOf(full)
		inputs[i].viaL, inputs[i].viaF = src.copies(t, OutputBody{Source: src.name, Seq: uint64(i + 1), DigestOnly: true, Output: d[:]}, full)
	}
	next := 0
	srcL, srcF, dstL, dstF := LeaderAddr("src"), FollowerAddr("src"), LeaderAddr("p"), FollowerAddr("p")
	stuck := time.NewTimer(time.Minute)
	defer stuck.Stop()
	round := func() {
		in := inputs[next]
		next++
		_ = e.net.Send(srcL, dstL, MsgNew, in.viaL)
		_ = e.net.Send(srcF, dstF, MsgNew, in.viaF)
		select {
		case <-got:
		case <-stuck.C:
			t.Fatalf("no output (pair failed: %v)", pair.Failed())
		}
		// The second replica's copy, the relay: let them land in this round.
		for want := e.net.Stats().Sent; e.net.Stats().Delivered < want; {
			time.Sleep(20 * time.Microsecond)
		}
	}
	for i := 0; i < warm; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(runs, round)
	t.Logf("allocs per 16 B FS input, both replicas and the receiver: %.1f", allocs)
	if allocs > inputBudget {
		t.Errorf("one 16 B FS input costs %.1f allocations, budget %d", allocs, inputBudget)
	}
}
