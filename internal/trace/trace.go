// Package trace is the protocol trace plane: an always-on, lock-light
// record of structured protocol events kept in a fixed-size ring buffer
// per modeled node (each FSO of a pair, each invocation-layer endpoint,
// each crash-NSO process). It exists to debug exactly the class of
// timing-dependent middleware stall that transport-level diagnosis cannot
// see: when FS-NewTOP wedges at a round boundary with every byte
// delivered and every goroutine idle, the merged ring timeline says which
// protocol transition did not happen, on which node, and what that node
// had observed up to that point — the introspection discipline the
// Eternal interceptor work [NMM99, NMM00] relied on for the same kind of
// middleware.
//
// Emitting an event is one small allocation published behind an atomic
// slot pointer: no mutex, no contention between nodes (each has its own
// ring), and snapshots taken while emission is live are always
// consistent. A nil *Ring or nil *Registry no-ops every method, so
// tracing can be threaded through constructors unconditionally and
// enabled per deployment.
package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies one protocol event type.
type Kind uint8

// Protocol event kinds. The replica/compare/relay events instrument
// internal/core, the Rx/Reissue events the fsnewtop invocation layer, the Round/Ack/View/Seq events the GC machine in
// internal/group, and the Watch events the replica watchdog.
const (
	// EvOrder: an input entered the total order (leader assigned A=index;
	// follower accepted fwd A=index). Note is the input's dedupe key.
	EvOrder Kind = iota + 1
	// EvOrderDup: an input copy was suppressed as a duplicate. Note=key.
	EvOrderDup
	// EvRelayQueued: no longer emitted; the follower relays an input the
	// moment it pools it (t1 = 0). Kept so later kinds keep their numbers.
	EvRelayQueued
	// EvRelaySent: follower pooled a direct input in the IRMP, relayed it
	// to the leader and armed the t2 deadline. Note=key.
	EvRelaySent
	// EvCompareArm: a local output entered the ICMP awaiting the peer's
	// candidate. A=output seq, B=deadline in ns.
	EvCompareArm
	// EvComparePeer: a peer candidate arrived before the local output and
	// was pooled in the ECMP. A=output seq.
	EvComparePeer
	// EvCompareMatch: a local output matched the peer candidate and was
	// dispatched. A=output seq.
	EvCompareMatch
	// EvCompareFire: the compare deadline expired unmatched. A=output seq.
	EvCompareFire
	// EvOrderFire: the t2 order deadline expired: the leader never ordered
	// a relayed input. Note=key.
	EvOrderFire
	// EvFailSignal: the replica transitioned into fail-signalling.
	// Note=reason.
	EvFailSignal
	// EvReject: an inbound message failed authentication or decode.
	EvReject
	// EvReissue: the invocation layer re-issued a GC-bound call as a
	// signed input to both FSOs. Note=method, A=the client sequence
	// the input was submitted under (matches the "c|<client>|<seq>"
	// dedupe keys in the replicas' order events).
	EvReissue
	// EvRxOutput: the invocation-layer receiver verified and accepted a
	// double-signed output. Note=source, A=output seq.
	EvRxOutput
	// EvRxDup: the receiver suppressed the duplicate copy of an output.
	// Note=source, A=output seq.
	EvRxDup
	// EvRxFail: the receiver accepted a verified fail-signal. Note=source.
	EvRxFail
	// EvRoundOpen: a symmetric-order message opened a new Lamport round in
	// the pending queue. A=TS, Note=origin.
	EvRoundOpen
	// EvRoundClose: drainSym delivered a message: its round is closed at
	// this member. A=TS, B=sender seq, Note=origin.
	EvRoundClose
	// EvRoundBlocked: drainSym stalled: the head message cannot be
	// delivered yet. A=head TS, B=min effective TS,
	// Note="<group>:<laggard member>". Emitted once per frontier change.
	EvRoundBlocked
	// EvAckOut: the machine emitted a logical acknowledgement. A=acked TS,
	// B=send-sequence high-water mark, Note=the one requester it answers
	// (empty for a broadcast).
	EvAckOut
	// EvAckIn: a logical acknowledgement was applied. A=TS, B=HW,
	// Note=from.
	EvAckIn
	// EvSuspect: the suspector marked a peer suspected. Note=peer.
	EvSuspect
	// EvViewPropose: a view-change proposal was issued or adopted.
	// A=view id, B=epoch, Note=coordinator.
	EvViewPropose
	// EvViewAck: a view-change acknowledgement was recorded. A=view id,
	// B=epoch, Note=from.
	EvViewAck
	// EvViewInstall: a view was installed. A=view id, B=flush size.
	EvViewInstall
	// EvSeqHandoff: the asymmetric-order sequencer changed across a view
	// install. Note=new sequencer.
	EvSeqHandoff
	// EvWatchCancel: a deadline was disarmed. A=output seq, Note=key.
	EvWatchCancel
	// EvWatchRearm: an expired deadline was granted a fresh window
	// because the watched peer made progress while it ran. A=output seq,
	// B=window ns, Note=input key.
	EvWatchRearm
	// EvWatchFire: a deadline expired and was handed to the replica.
	// A=output seq, Note=key.
	EvWatchFire
	// EvJoinAsk: an admission request was received from a non-member.
	// Note=joiner.
	EvJoinAsk
	// EvStateSnap: the coordinator sent a state-transfer snapshot. A=view
	// id, B=stream count, Note=joiner.
	EvStateSnap
	// EvStateAck: a joiner confirmed installing a snapshot. A=view id,
	// Note=joiner (coordinator side) or coordinator (joiner side).
	EvStateAck
	// EvJoinAdmit: a view admitting fresh members installed. A=view id,
	// B=join count.
	EvJoinAdmit
	// EvAckElided: an accept would have repeated the promise this member
	// last broadcast, so no acknowledgement left. A=promised TS,
	// B=send-sequence high-water mark.
	EvAckElided
	// EvAckResend: a tick re-announced the standing promise because the
	// head of the symmetric order stayed blocked for a resend interval.
	// A=promised TS, B=HW, Note="<group>:<laggard member>".
	EvAckResend
	// EvLeaderSilent: a follower heard no fwd from its leader within the
	// silence bound and fail-signals. A=silence ns, B=bound ns.
	EvLeaderSilent
	// EvStallRearm: the silence watch fired later than its loop can be
	// late on its own, so the follower's host stalled: the window
	// restarts instead of fail-signalling. A=lateness ns, B=bound ns.
	EvStallRearm
)

var kindNames = map[Kind]string{
	EvOrder:        "order",
	EvOrderDup:     "order-dup",
	EvRelayQueued:  "relay-queued",
	EvRelaySent:    "relay-sent",
	EvCompareArm:   "compare-arm",
	EvComparePeer:  "compare-peer",
	EvCompareMatch: "compare-match",
	EvCompareFire:  "compare-fire",
	EvOrderFire:    "order-fire",
	EvFailSignal:   "fail-signal",
	EvReject:       "reject",
	EvReissue:      "reissue",
	EvRxOutput:     "rx-output",
	EvRxDup:        "rx-dup",
	EvRxFail:       "rx-fail",
	EvRoundOpen:    "round-open",
	EvRoundClose:   "round-close",
	EvRoundBlocked: "round-blocked",
	EvAckOut:       "ack-out",
	EvAckIn:        "ack-in",
	EvSuspect:      "suspect",
	EvViewPropose:  "view-propose",
	EvViewAck:      "view-ack",
	EvViewInstall:  "view-install",
	EvSeqHandoff:   "seq-handoff",
	EvWatchCancel:  "watch-cancel",
	EvWatchRearm:   "watch-rearm",
	EvWatchFire:    "watch-fire",
	EvJoinAsk:      "join-ask",
	EvStateSnap:    "state-snap",
	EvStateAck:     "state-ack",
	EvJoinAdmit:    "join-admit",
	EvAckElided:    "ack-elided",
	EvAckResend:    "ack-resend",
	EvLeaderSilent: "leader-silent",
	EvStallRearm:   "stall-rearm",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Traceable is the capability a wrapped component implements to receive
// the ring of the node it runs on. The fail-signal pair builds its two
// machine replicas through an opaque factory; if the machines implement
// Traceable, each is handed its own FSO's ring after construction, so
// GC-level events interleave with that FSO's order/compare events in one
// per-node timeline.
type Traceable interface {
	SetTrace(*Ring)
}

// Event is one recorded protocol event.
type Event struct {
	// At is the event instant in Unix nanoseconds.
	At int64
	// Seq is the ring-local emission index (monotonic per ring; exposes
	// overwritten history as gaps).
	Seq uint64
	// Kind says what happened; A, B and Note are kind-specific (see the
	// Kind constants).
	Kind Kind
	A, B uint64
	Note string
}

// NodeEvent is an Event tagged with the emitting node's name, as returned
// by snapshots that merge several rings.
type NodeEvent struct {
	Node string
	Event
}

// slot is one ring cell. Events are published as immutable values behind
// an atomic pointer: emission is an allocate-and-store, snapshots are a
// load — no lock, no torn reads, and clean under the race detector even
// when a stall dump races live emission.
type slot struct {
	ev atomic.Pointer[Event]
}

// DefaultRingSize is the per-node event capacity when the registry is not
// told otherwise. At FS-NewTOP's instrumentation density (~6 events per
// ordered input per node) it holds the last several hundred inputs —
// several seconds of benchmark traffic, and far more than the window any
// round-boundary stall needs.
const DefaultRingSize = 4096

// Ring is one node's event buffer. All methods are safe for concurrent
// use, and safe on a nil receiver (no-ops), so components can thread an
// optional ring without guards.
type Ring struct {
	name  string
	now   func() time.Time
	mask  uint64
	slots []slot
	pos   atomic.Uint64
}

// newRing sizes the buffer up to the next power of two.
func newRing(name string, size int, now func() time.Time) *Ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Ring{name: name, now: now, mask: uint64(n - 1), slots: make([]slot, n)}
}

// Name returns the node name the ring was registered under ("" on nil).
func (r *Ring) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Emit records one event: one small allocation and one atomic store. It
// never blocks a protocol path.
func (r *Ring) Emit(kind Kind, a, b uint64, note string) {
	if r == nil {
		return
	}
	seq := r.pos.Add(1) - 1
	r.slots[seq&r.mask].ev.Store(&Event{
		At: r.now().UnixNano(), Seq: seq, Kind: kind, A: a, B: b, Note: note,
	})
}

// Overwritten returns how many events the ring has lost to wrap-around:
// all but the last len(slots) it was handed. Nonzero means its history is
// truncated.
func (r *Ring) Overwritten() uint64 {
	if r == nil {
		return 0
	}
	if end, n := r.pos.Load(), uint64(len(r.slots)); end > n {
		return end - n
	}
	return 0
}

// Snapshot copies the ring's surviving events in emission order. A slot
// that a concurrent writer has already recycled for a newer sequence is
// skipped rather than reported out of place.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	end := r.pos.Load()
	n := uint64(len(r.slots))
	start := uint64(0)
	if end > n {
		start = end - n
	}
	out := make([]Event, 0, end-start)
	for seq := start; seq < end; seq++ {
		p := r.slots[seq&r.mask].ev.Load()
		if p == nil || p.Seq != seq {
			continue // not yet written, or recycled by a wrapping writer
		}
		out = append(out, *p)
	}
	return out
}

// Registry groups the rings of one deployment and renders merged dumps.
type Registry struct {
	now  func() time.Time
	size int

	mu    sync.Mutex
	rings []*Ring
}

// NewRegistry returns a registry whose rings hold size events each (0
// selects DefaultRingSize) and stamp them from now (nil selects
// time.Now). Protocol code running under a manual test clock should pass
// that clock's Now so replayed timelines are deterministic.
func NewRegistry(size int, now func() time.Time) *Registry {
	if now == nil {
		now = time.Now
	}
	return &Registry{now: now, size: size}
}

// Ring creates and registers one node's ring. On a nil registry it
// returns nil — which every Ring method accepts — so deployments without
// tracing pay only a nil check per would-be event.
func (g *Registry) Ring(node string) *Ring {
	if g == nil {
		return nil
	}
	r := newRing(node, g.size, g.now)
	g.mu.Lock()
	g.rings = append(g.rings, r)
	g.mu.Unlock()
	return r
}

// Snapshot merges every ring into one timeline ordered by (At, Node, Seq).
func (g *Registry) Snapshot() []NodeEvent {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	rings := append([]*Ring(nil), g.rings...)
	g.mu.Unlock()
	var out []NodeEvent
	for _, r := range rings {
		for _, ev := range r.Snapshot() {
			out = append(out, NodeEvent{Node: r.name, Event: ev})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// WriteTimeline renders the merged timeline, one event per line, with
// timestamps relative to the first event — the causal view a stall
// post-mortem reads top to bottom. A header line per node says how many
// of its events wrapped out of its ring, so a reader knows where a
// node's history starts short.
func (g *Registry) WriteTimeline(w io.Writer) error {
	if g != nil {
		g.mu.Lock()
		rings := append([]*Ring(nil), g.rings...)
		g.mu.Unlock()
		for _, r := range rings {
			if _, err := fmt.Fprintf(w, "# %s: %d events overwritten\n", r.name, r.Overwritten()); err != nil {
				return err
			}
		}
	}
	evs := g.Snapshot()
	if len(evs) == 0 {
		_, err := fmt.Fprintln(w, "(no trace events)")
		return err
	}
	t0 := evs[0].At
	for _, ev := range evs {
		line := fmt.Sprintf("%12.6fms %-10s %-14s", float64(ev.At-t0)/1e6, ev.Node, ev.Kind)
		if ev.A != 0 || ev.B != 0 {
			line += fmt.Sprintf(" a=%d b=%d", ev.A, ev.B)
		}
		if ev.Note != "" {
			line += " " + ev.Note
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// Dump writes the merged timeline plus all goroutine stacks to one file
// in dir (created if needed) and returns its path. label distinguishes
// concurrent dumps ("stall", "sigquit", a run id).
func (g *Registry) Dump(dir, label string) (string, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: creating dump dir: %w", err)
	}
	name := fmt.Sprintf("trace-%s-%d.txt", label, time.Now().UnixNano())
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: creating dump: %w", err)
	}
	defer f.Close()
	if err := g.WriteTimeline(f); err != nil {
		return "", err
	}
	if _, err := fmt.Fprintf(f, "\n--- goroutine stacks ---\n%s", Stacks()); err != nil {
		return "", err
	}
	return path, nil
}

// Stacks returns the stack traces of every live goroutine — the "what is
// everything waiting on" half of a stall snapshot.
func Stacks() []byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, len(buf)*2)
	}
}
