package group

import (
	"fmt"

	"fsnewtop/internal/codec"
	"fsnewtop/internal/sm"
)

// KindBatch is the batch envelope: its payload is a BatchMsg, a versioned
// list of (kind, payload) items that the machine processes sequentially
// inside one step. The machine only ever consumes batches — it never emits
// one. FS-NewTOP produces them in two places (package fsnewtop): the
// invocation layer's accumulation window submits one KindBatch input
// covering several multicast requests, and the wrapper around each pair
// replica merges runs of same-destination outputs into one KindBatch
// output, so one fail-signal sign/compare/counter-sign round amortizes
// over the whole run. Crash-tolerant NewTOP never sees one.
const KindBatch = "gc.batch"

// batchWireVersion gates the BatchMsg encoding: a receiver that sees an
// unknown version drops the batch rather than guessing, so the format can
// evolve without silent misdecodes.
const batchWireVersion = 1

// BatchItem is one (kind, payload) entry of a BatchMsg.
type BatchItem struct {
	Kind    string
	Payload []byte
}

// BatchMsg is the payload of KindBatch.
type BatchMsg struct {
	Items []BatchItem
}

// Marshal returns the canonical encoding.
func (b BatchMsg) Marshal() []byte {
	outs := make([]sm.Output, len(b.Items))
	for i, it := range b.Items {
		outs[i] = sm.Output{Kind: it.Kind, Payload: it.Payload}
	}
	enc, _ := MarshalBatch(outs)
	return enc
}

// MarshalBatch returns the canonical encoding of the BatchMsg whose items
// are outs' kinds and payloads, and the body regions of those payloads at
// their place in it (see sm.Output.Bodies): FS-NewTOP's window and
// coalescer batch what they hold this way, with no item list between.
func MarshalBatch(outs []sm.Output) ([]byte, []codec.Region) {
	n, regions := 8, 0
	for _, o := range outs {
		n += len(o.Kind) + len(o.Payload) + 8
		regions += len(o.Bodies)
	}
	w := codec.NewWriter(n)
	w.GrowBodies(regions)
	w.U8(batchWireVersion)
	w.U32(uint32(len(outs)))
	for _, o := range outs {
		w.String(o.Kind)
		w.Nested32(o.Payload, o.Bodies)
	}
	return w.Bytes(), w.Bodies()
}

// UnmarshalBatchMsg decodes a BatchMsg, rejecting unknown wire versions.
func UnmarshalBatchMsg(b []byte) (BatchMsg, error) {
	r := codec.NewReader(b)
	if v := r.U8(); v != batchWireVersion {
		return BatchMsg{}, fmt.Errorf("group: batch wire version %d (want %d)", v, batchWireVersion)
	}
	var m BatchMsg
	n := int(r.U32())
	if r.Err() == nil && n <= 1<<20 {
		// An item is at least its two length prefixes: a count the bytes
		// cannot hold sizes no allocation, it fails the decode.
		m.Items = make([]BatchItem, 0, min(n, r.Remaining()/8))
		for i := 0; i < n && r.Err() == nil; i++ {
			m.Items = append(m.Items, BatchItem{Kind: r.Name(), Payload: r.Bytes32()})
		}
	}
	if err := r.Finish(); err != nil {
		return BatchMsg{}, fmt.Errorf("group: decoding batch: %w", err)
	}
	return m, nil
}
