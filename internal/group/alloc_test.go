package group

import (
	"runtime"
	"testing"

	"fsnewtop/internal/sm"
)

// stepAllocs returns the allocations one Step of in makes.
func stepAllocs(m *Machine, in sm.Input) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	m.Step(in)
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}

// TestStepAllocBudget fences what the symmetric order allocates per input
// at ten members, in the steady state of the closed-loop workload: one
// 16-byte data message from a peer (accept, acknowledge), then the nine
// peers' acknowledgements (the last of which delivers it). What is left is
// the encoding of what leaves — the fresh promise, the delivery — and the
// step's output slice; decoded names come from the name table, the others
// list and the local destination are shared, the pending set and the
// retention window are rings. Budgets are per step, averaged over 200
// rounds.
func TestStepAllocBudget(t *testing.T) {
	names := memberNames(10)
	self, peer := names[0], names[1]
	m := New(Config{Self: self, Mode: SuspectFailSignal})
	m.Step(sm.Input{Kind: KindJoin, Payload: JoinReq{Group: "g", Members: names}.Marshal()})

	const warm, rounds = 1200, 200 // warm: past every ring's growth
	type round struct{ data, acks []sm.Input }
	inputs := make([]round, warm+rounds)
	for i := range inputs {
		seq := uint64(i + 1)
		d := DataMsg{Group: "g", Origin: peer, Service: TotalSym, SenderSeq: seq, TS: seq, Payload: make([]byte, 16)}
		r := round{data: []sm.Input{{Kind: KindData, From: peer, Payload: d.Marshal()}}}
		for _, n := range names[1:] {
			a := AckMsg{Group: "g", TS: seq}
			if n == peer {
				a.SendSeqHW = seq
			}
			r.acks = append(r.acks, sm.Input{Kind: KindAck, From: n, Payload: a.Marshal()})
		}
		inputs[i] = r
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var dataAllocs, ackAllocs uint64
	for i, r := range inputs {
		da := stepAllocs(m, r.data[0])
		var aa uint64
		for _, in := range r.acks {
			aa += stepAllocs(m, in)
		}
		if i >= warm {
			dataAllocs += da
			ackAllocs += aa
		}
	}
	if n := m.groups["g"].pendingSym.len(); n != 0 {
		t.Fatalf("%d messages left pending: the rounds did not deliver", n)
	}
	perData := float64(dataAllocs) / rounds
	perAck := float64(ackAllocs) / float64(rounds*len(names[1:]))
	t.Logf("allocs per step: data %.2f, ack %.2f", perData, perAck)
	if perData > 2 {
		t.Errorf("data step: %.2f allocs, budget 2 (the promise and the output slice)", perData)
	}
	if perAck > 0.25 {
		t.Errorf("ack step: %.2f allocs, budget 0.25 (one delivery and its output slice per 9 acks)", perAck)
	}
}
