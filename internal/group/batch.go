package group

import (
	"fmt"

	"fsnewtop/internal/codec"
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
	n := 8
	for _, it := range b.Items {
		n += len(it.Kind) + len(it.Payload) + 8
	}
	w := codec.NewWriter(n)
	w.U8(batchWireVersion)
	w.U32(uint32(len(b.Items)))
	for _, it := range b.Items {
		w.String(it.Kind)
		w.Bytes32(it.Payload)
	}
	return w.Bytes()
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
		m.Items = make([]BatchItem, 0, n)
		for i := 0; i < n; i++ {
			m.Items = append(m.Items, BatchItem{Kind: r.String(), Payload: r.Bytes32()})
		}
	}
	if err := r.Finish(); err != nil {
		return BatchMsg{}, fmt.Errorf("group: decoding batch: %w", err)
	}
	return m, nil
}
