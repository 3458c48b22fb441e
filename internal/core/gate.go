package failsignal

import (
	"strconv"

	"fsnewtop/internal/codec"
	"fsnewtop/internal/trace"
)

// The admission gate answers "do I already have this input?" before anyone
// asks "is it authentic?". An FS node legitimately receives up to six
// copies of one input (two senders × two addresses, the follower's relay,
// the leader's forward); identity is a few header bytes and a bit test,
// authenticity is two MACs over the whole body, so the copies that lose
// the race are dropped on identity alone.
//
// Three lines of safety argument:
//   - dropping an input is always safe: it equals loss, which every layer
//     above already repairs;
//   - a key is marked only after a copy carrying it verified, so a forged
//     copy can neither poison the gate nor shadow the authentic one;
//   - every input that is accepted was verified by this node.

// keyKind separates the sequence spaces an input's identity can live in.
type keyKind uint8

const (
	keyClient     keyKind = iota + 1 // single-signed client input, the client's own sequence
	keyOutput                        // double-signed FS output, the pair's output sequence
	keyFailSignal                    // an FS process's fail-signal: one per source, seq 0
)

// inputKey identifies an input across the copies a node may receive. It is
// comparable: the IRMP and the watchdog key on it directly.
type inputKey struct {
	kind   keyKind
	source string
	seq    uint64
}

// String renders the key for trace events and fail-signal reasons. Nothing
// on the admission path calls it unless a ring is attached.
func (k inputKey) String() string {
	switch k.kind {
	case keyClient:
		return "c|" + k.source + "|" + strconv.FormatUint(k.seq, 10)
	case keyOutput:
		return "f|" + k.source + "|" + strconv.FormatUint(k.seq, 10)
	case keyFailSignal:
		return "fsig|" + k.source
	default:
		return ""
	}
}

// wire views the key the way the gate is probed.
func (k inputKey) wire() wireKey {
	return wireKey{kind: k.kind, source: []byte(k.source), seq: k.seq}
}

// wireKey is an input's identity as it sits in the payload: source aliases
// the message bytes, so probing the gate for a copy allocates nothing.
type wireKey struct {
	kind   keyKind
	source []byte
	seq    uint64
}

// key copies the identity out of the payload for callers that retain it.
// A source on the roster comes from the name table, uncopied.
func (k wireKey) key() inputKey {
	return inputKey{kind: k.kind, source: codec.NameOf(k.source), seq: k.seq}
}

func (k wireKey) String() string { return k.key().String() }

// traceKey emits an event whose note is an input key. The key is rendered
// only when a ring is attached, so an untraced node never formats one.
func traceKey[K interface{ String() string }](ring *trace.Ring, kind trace.Kind, a, b uint64, k K) {
	if ring != nil {
		ring.Emit(kind, a, b, k.String())
	}
}

// gateWindow is how many sequence numbers behind a source's highest
// admitted one the gate still tells apart — the same horizon as maxECMP.
// Anything older counts as known: a copy that late is indistinguishable
// from a lost one, and loss is repaired above.
const gateWindow = 1 << 16

// seqWindow is one source's sliding dedupe window: the highest admitted
// sequence and one bit per sequence in (top-gateWindow, top].
type seqWindow struct {
	top  uint64
	bits [gateWindow / 64]uint64
}

func (w *seqWindow) known(seq uint64) bool {
	if seq > w.top {
		return false
	}
	if w.top-seq >= gateWindow {
		return true
	}
	return w.bits[seq%gateWindow/64]&(1<<(seq%64)) != 0
}

func (w *seqWindow) mark(seq uint64) {
	switch {
	case seq > w.top:
		// Slide: the slots between the old top and seq now stand for
		// sequences never admitted.
		if seq-w.top >= gateWindow {
			w.bits = [gateWindow / 64]uint64{}
		} else {
			for s := w.top + 1; s <= seq; s++ {
				w.bits[s%gateWindow/64] &^= 1 << (s % 64)
			}
		}
		w.top = seq
	case w.top-seq >= gateWindow:
		return // older than the window: already known, and its slot is someone else's
	}
	w.bits[seq%gateWindow/64] |= 1 << (seq % 64)
}

// gateStream names one sequence space: a source in one of its roles.
type gateStream struct {
	kind   keyKind
	source string
}

// gate is a node's memory of the inputs it has admitted: one window per
// source, so it is O(sources) however much traffic passes. A fail-signal
// is bit 0 of its own stream. The owner's mutex guards it.
type gate struct {
	streams map[gateStream]*seqWindow
}

func newGate() gate { return gate{streams: make(map[gateStream]*seqWindow)} }

// known reports whether k was admitted before, or is too old to tell.
func (g *gate) known(k wireKey) bool {
	w := g.streams[gateStream{k.kind, string(k.source)}]
	return w != nil && w.known(k.seq)
}

// mark admits k. Callers mark only what they verified.
func (g *gate) mark(k wireKey) {
	w := g.streams[gateStream{k.kind, string(k.source)}]
	if w == nil {
		w = new(seqWindow)
		g.streams[gateStream{k.kind, string(k.source)}] = w
	}
	w.mark(k.seq)
}
