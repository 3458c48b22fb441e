package group

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fsnewtop/internal/sm"
)

func TestBatchMsgRoundTrip(t *testing.T) {
	in := BatchMsg{Items: []BatchItem{
		{Kind: KindData, Payload: []byte("one")},
		{Kind: KindAck, Payload: nil},
		{Kind: KindSeq, Payload: bytes.Repeat([]byte{0xab}, 300)},
	}}
	out, err := UnmarshalBatchMsg(in.Marshal())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(out.Items) != len(in.Items) {
		t.Fatalf("item count %d, want %d", len(out.Items), len(in.Items))
	}
	for i := range in.Items {
		if out.Items[i].Kind != in.Items[i].Kind {
			t.Fatalf("item %d kind %q, want %q", i, out.Items[i].Kind, in.Items[i].Kind)
		}
		if !bytes.Equal(out.Items[i].Payload, in.Items[i].Payload) {
			t.Fatalf("item %d payload mismatch", i)
		}
	}
}

func TestBatchMsgRejectsUnknownVersion(t *testing.T) {
	b := BatchMsg{Items: []BatchItem{{Kind: KindData, Payload: []byte("x")}}}.Marshal()
	b[0] = batchWireVersion + 1
	if _, err := UnmarshalBatchMsg(b); err == nil {
		t.Fatal("decoded a batch with an unknown wire version")
	}
	if _, err := UnmarshalBatchMsg([]byte{batchWireVersion}); err == nil {
		t.Fatal("decoded a truncated batch")
	}
}

// TestBatchCountSizesNoAllocation: a 6-byte batch claiming 2^20 items
// fails to decode without allocating the 40 MiB its count asks for. The
// bytes are averaged over many decodes: TotalAlloc is process-wide, and
// one decode's share cannot be told from a busy neighbour's.
func TestBatchCountSizesNoAllocation(t *testing.T) {
	b := []byte{batchWireVersion, 0, 0x10, 0, 0, 0xFF}
	const decodes = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < decodes; i++ {
		if _, err := UnmarshalBatchMsg(b); err == nil {
			t.Fatal("decoded a 6-byte batch claiming 2^20 items")
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / decodes; got >= 1<<10 {
		t.Fatalf("a failed batch decode allocated %d bytes", got)
	}
}

// batchOf wraps multicast requests into one KindBatch input — the shape
// FS-NewTOP's accumulation window submits.
func batchOf(reqs ...McastReq) sm.Input {
	items := make([]BatchItem, len(reqs))
	for i, r := range reqs {
		items[i] = BatchItem{Kind: KindMcast, Payload: r.Marshal()}
	}
	return sm.Input{Kind: KindBatch, Payload: BatchMsg{Items: items}.Marshal()}
}

// TestBatchInputFansOut feeds one KindBatch input carrying several
// multicast requests into a cluster and checks that every request is
// delivered everywhere in submission order, and that the machine itself
// never emits a batch: only FS-NewTOP's replica wrapper coalesces outputs.
func TestBatchInputFansOut(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	c.joinAll("g")

	var reqs []McastReq
	for i := 0; i < 5; i++ {
		reqs = append(reqs, McastReq{Group: "g", Service: TotalSym, Payload: []byte(fmt.Sprintf("m%d", i))})
	}
	c.submit("a", batchOf(reqs...))
	c.run()
	c.tick(100 * time.Millisecond)
	want := []string{"m0", "m1", "m2", "m3", "m4"}
	for _, n := range []string{"a", "b", "c"} {
		if got := c.payloads(n); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s delivered %v, want %v", n, got, want)
		}
	}
	if n := c.emitted[KindBatch]; n != 0 {
		t.Fatalf("the machine emitted %d KindBatch outputs, want none", n)
	}
}

// TestNestedBatchRefused checks the depth guard: a batch containing a
// batch is dropped at the inner level rather than recursed into.
func TestNestedBatchRefused(t *testing.T) {
	m := New(Config{Self: "a"})
	m.Step(sm.Input{Kind: KindJoin, Payload: JoinReq{Group: "g", Members: []string{"a", "b"}}.Marshal()})

	inner := batchOf(McastReq{Group: "g", Service: Reliable, Payload: []byte("deep")})
	outer := BatchMsg{Items: []BatchItem{{Kind: KindBatch, Payload: inner.Payload}}}
	outs := m.Step(sm.Input{Kind: KindBatch, Payload: outer.Marshal()})
	if len(outs) != 0 {
		t.Fatalf("nested batch produced outputs: %+v", outs)
	}
}

// TestBatchedClusterMatchesUnbatched runs the same mixed-service script
// through a cluster that submits each round's multicasts one input at a
// time and one that submits them as a KindBatch input per member, and
// requires identical per-member delivery sequences and final views —
// batching must be purely an envelope change, invisible to the
// application.
func TestBatchedClusterMatchesUnbatched(t *testing.T) {
	drive := func(batched bool) (map[string][]string, map[string]uint64) {
		c := newTCluster(t, SuspectPing, "a", "b", "c")
		c.joinAll("g")
		for i := 0; i < 4; i++ {
			for _, n := range c.names {
				reqs := []McastReq{
					{Group: "g", Service: TotalSym, Payload: []byte(fmt.Sprintf("%s-s%d", n, i))},
					{Group: "g", Service: Causal, Payload: []byte(fmt.Sprintf("%s-c%d", n, i))},
					{Group: "g", Service: Reliable, Payload: []byte(fmt.Sprintf("%s-r%d", n, i))},
				}
				if batched {
					c.submit(n, batchOf(reqs...))
				} else {
					for _, r := range reqs {
						c.submit(n, sm.Input{Kind: KindMcast, Payload: r.Marshal()})
					}
				}
			}
			c.run()
			c.tick(50 * time.Millisecond)
		}
		got := make(map[string][]string)
		views := make(map[string]uint64)
		for _, n := range c.names {
			got[n] = c.payloads(n)
			views[n], _ = c.machines[n].View("g")
		}
		return got, views
	}

	plainMsgs, plainViews := drive(false)
	batchMsgs, batchViews := drive(true)
	if !reflect.DeepEqual(plainMsgs, batchMsgs) {
		t.Fatalf("delivery mismatch:\nplain:   %v\nbatched: %v", plainMsgs, batchMsgs)
	}
	if !reflect.DeepEqual(plainViews, batchViews) {
		t.Fatalf("view mismatch: plain %v batched %v", plainViews, batchViews)
	}
}

// TestBatchedMachineIsDeterministic replays a member's recorded input
// script — KindBatch inputs among them — through sm.CheckDeterminism:
// unpacking a batch must be a pure function of its bytes (R1).
func TestBatchedMachineIsDeterministic(t *testing.T) {
	c := newTCluster(t, SuspectPing, "a", "b", "c")
	c.joinAll("g")
	for i := 0; i < 3; i++ {
		c.submit("a", batchOf(
			McastReq{Group: "g", Service: TotalSym, Payload: []byte(fmt.Sprintf("s%d", i))},
			McastReq{Group: "g", Service: TotalAsym, Payload: []byte(fmt.Sprintf("x%d", i))},
		))
		c.mcast("b", "g", TotalAsym, fmt.Sprintf("y%d", i))
		c.tick(100 * time.Millisecond)
	}
	script := c.inputsOf["a"]
	if len(script) < 10 {
		t.Fatalf("script too small (%d inputs)", len(script))
	}
	factory := func() sm.Machine { return New(Config{Self: "a", Mode: SuspectPing}) }
	if err := sm.CheckDeterminism(factory, script); err != nil {
		t.Fatalf("machine fed batches is non-deterministic: %v", err)
	}
}
