package group

import (
	"sort"
	"time"
)

// sentRetention bounds how many of our own messages we keep per group for
// retransmission.
const sentRetention = 4096

// maxNackBatch bounds how many missing sequences one NACK requests.
const maxNackBatch = 64

// symRetention bounds how many already-delivered symmetric-order messages
// we keep per origin for the view-change flush. Retention is what lets a
// view change repair a partitioned laggard: a message from a since-dead
// origin may already be delivered (hence no longer pending) at every
// member that received it, and the origin can no longer retransmit it, so
// the delivered copy is the only repair source left.
const symRetention = 512

// memberStream tracks per-(group, member) reliability and ordering state.
type memberStream struct {
	// nextSeq is the next contiguous sender sequence expected (sequences
	// start at 1).
	nextSeq uint64
	// buffered holds out-of-order data awaiting the gap fill.
	buffered map[uint64]DataMsg
	// lastNack is when we last requested this member's missing sequences.
	lastNack time.Time
	// lastDataTS is the Lamport timestamp of the member's latest in-order
	// accepted data.
	lastDataTS uint64
	// ackTS and ackHW are the member's best acknowledgement: a promise
	// that its future messages carry timestamps > ackTS, usable once we
	// hold its data through sequence ackHW.
	ackTS, ackHW uint64
	// symDelivered is the highest sender sequence of this member's
	// symmetric-order messages we have delivered (flush deduplication).
	symDelivered uint64
	// asymDelivered is the analogous watermark for asymmetric order.
	asymDelivered uint64
	// retained keeps this origin's recently delivered symmetric-order
	// messages (bounded by symRetention) so a view change can offer them
	// to members the origin never reached.
	retained map[uint64]DataMsg
}

func newMemberStream() *memberStream {
	return &memberStream{
		nextSeq:  1,
		buffered: make(map[uint64]DataMsg),
		retained: make(map[uint64]DataMsg),
	}
}

// retain records one delivered symmetric-order message for later flush
// repair, pruning the retention window.
func (s *memberStream) retain(d DataMsg) {
	s.retained[d.SenderSeq] = d
	if d.SenderSeq > symRetention {
		delete(s.retained, d.SenderSeq-symRetention)
	}
}

// highestContig is the highest sender sequence received without gaps.
func (s *memberStream) highestContig() uint64 { return s.nextSeq - 1 }

// gapTarget is the highest sender sequence known to exist: the best ack's
// send watermark or the highest buffered out-of-order message. A target
// at or above nextSeq is a gap.
func (s *memberStream) gapTarget() uint64 {
	target := s.ackHW
	for seq := range s.buffered {
		if seq > target {
			target = seq
		}
	}
	return target
}

// effLastTS is the member's effective observed clock: its last in-order
// data timestamp, raised by its best ack once the ack's watermark is
// covered. This gating is what keeps retransmitted messages from being
// overtaken in the total order.
func (s *memberStream) effLastTS() uint64 {
	ts := s.lastDataTS
	if s.ackHW <= s.highestContig() && s.ackTS > ts {
		ts = s.ackTS
	}
	return ts
}

// asymKey identifies one message for the asymmetric-order maps.
type asymKey struct {
	origin string
	seq    uint64
}

// viewChange is the in-progress membership agreement for one group.
type viewChange struct {
	viewID  uint64
	epoch   uint64
	members []string // proposed membership, sorted
	joins   []string // proposed admissions (subset of members), sorted
	// acks maps acked members to their reported pending sets
	// (coordinator side only).
	acks map[string]ViewAck
	// proposed maps every epoch this coordinator proposed for viewID,
	// this one included, to its candidate membership (coordinator side
	// only): an older epoch's ack counts only if its flush is complete
	// for this candidate (see onViewAck).
	proposed  map[uint64][]string
	startedAt time.Time
}

// joinerState tracks one admission request at a current member. Every
// member records pending joiners so that a coordinator crash mid-transfer
// hands the join to the next coordinator rather than dropping it.
type joinerState struct {
	// sentViewID is the view the last transmitted snapshot was taken at
	// (coordinator side; 0 until a snapshot was sent).
	sentViewID uint64
	// acked is set once the joiner confirmed installing the snapshot for
	// sentViewID; it resets whenever the view moves past sentViewID.
	acked bool
	// lastSend paces snapshot transmissions; lastAsk expires joiners that
	// stopped asking.
	lastSend time.Time
	lastAsk  time.Time
}

// groupState is all machine state for one group.
type groupState struct {
	name    string
	viewID  uint64
	members []string // sorted, always contains self while joined

	// Lamport clock (symmetric total order).
	clock uint64
	// outSeq numbers our own non-unreliable multicasts, starting at 1.
	outSeq uint64
	// streams tracks per-member intake state.
	streams map[string]*memberStream
	// sent retains our own messages for retransmission.
	sent map[uint64]DataMsg

	// pendingSym holds accepted symmetric-order messages not yet
	// deliverable, sorted by (TS, Origin).
	pendingSym []DataMsg
	// promised is the (TS, SendSeqHW) of the last acknowledgement this
	// member broadcast: its standing promise. An accept acknowledges only
	// when (clock, outSeq) differs from it. Zero in a fresh or
	// snapshot-installed group, which no accept can match (an accepted
	// message carries TS >= 1). Protocol state: both replicas of a pair
	// hold the same value (R1).
	promised struct{ ts, hw uint64 }
	// stalled is the blocked head of pendingSym as the last tick saw it,
	// and since when it has been blocked with no ack of ours leaving (the
	// tick that first saw it, or the last announce): what tickPromise
	// measures a lost promise against.
	stalled struct {
		origin string
		seq    uint64
		since  time.Time
	}

	// causalD is the causal delivery vector: causalD[self] counts our own
	// causal sends, causalD[q] counts deliveries from q.
	causalD map[string]uint64
	// causalPend holds accepted causal messages awaiting their precedence.
	causalPend []DataMsg

	// Asymmetric order: the sequencer (least member) assigns globals.
	nextGlobal      uint64 // sequencer: next global to assign
	nextAsymDeliver uint64
	asymData        map[asymKey]DataMsg
	asymByGlobal    map[uint64]asymKey

	// lastBlocked remembers the last round-blocked frontier emitted to
	// the trace, so an unchanged stall is reported once per change rather
	// than once per re-evaluation. Trace-only state: never read by
	// protocol logic, so replicas stay output-identical (R1).
	lastBlocked struct {
		headTS, minEff uint64
		laggard        string
	}

	// Membership.
	suspects map[string]bool
	change   *viewChange
	// lastEpoch is the highest proposal epoch seen or used for the next
	// view; proposals must beat it.
	lastEpoch uint64

	// joining marks a provisional state installed from a snapshot: self is
	// not yet in members, so the machine neither multicasts, proposes, nor
	// NACKs in this group until a view admitting it installs.
	joining bool
	// joiners tracks pending admission requests from non-members.
	joiners map[string]*joinerState
}

func newGroupState(name string, members []string) *groupState {
	ms := append([]string(nil), members...)
	sort.Strings(ms)
	return &groupState{
		name:         name,
		viewID:       1,
		members:      ms,
		streams:      make(map[string]*memberStream),
		sent:         make(map[uint64]DataMsg),
		causalD:      make(map[string]uint64),
		asymData:     make(map[asymKey]DataMsg),
		asymByGlobal: make(map[uint64]asymKey),
		suspects:     make(map[string]bool),
		joiners:      make(map[string]*joinerState),
	}
}

// stream returns (creating if needed) the intake state for member m.
func (g *groupState) stream(m string) *memberStream {
	s, ok := g.streams[m]
	if !ok {
		s = newMemberStream()
		g.streams[m] = s
	}
	return s
}

// isMember reports whether m is in the current view.
func (g *groupState) isMember(m string) bool {
	for _, x := range g.members {
		if x == m {
			return true
		}
	}
	return false
}

// others returns the current members except self, sorted.
func (g *groupState) others(self string) []string {
	out := make([]string, 0, len(g.members)-1)
	for _, m := range g.members {
		if m != self {
			out = append(out, m)
		}
	}
	return out
}

// sequencer is the asymmetric-order sequencer: the least current member.
func (g *groupState) sequencer() string {
	if len(g.members) == 0 {
		return ""
	}
	return g.members[0]
}

// candidateMembers is the current membership minus suspects, sorted.
func (g *groupState) candidateMembers() []string {
	out := make([]string, 0, len(g.members))
	for _, m := range g.members {
		if !g.suspects[m] {
			out = append(out, m)
		}
	}
	return out
}

// coordinator is the least non-suspected current member — the one entitled
// to drive view changes and state transfers. Joiners never coordinate: the
// coordinator is computed over the installed membership only, even when a
// proposal extends it with admissions that sort lower.
func (g *groupState) coordinator() string {
	c := g.candidateMembers()
	if len(c) == 0 {
		return ""
	}
	return c[0]
}

// coordinatorOf is the least proposed member that is not a fresh admission
// — the identity entitled to have issued a proposal or install carrying
// (members, joins).
func coordinatorOf(members, joins []string) string {
	for _, m := range members {
		if !contains(joins, m) {
			return m
		}
	}
	return ""
}

// ackedJoiners returns the joiners whose state transfer completed at the
// current view, sorted — the admissions the next proposal should carry.
func (g *groupState) ackedJoiners() []string {
	var out []string
	for _, j := range sortedKeys(g.joiners) {
		js := g.joiners[j]
		if js.acked && js.sentViewID == g.viewID {
			out = append(out, j)
		}
	}
	return out
}

// purgeMember drops every per-origin trace of a name whose old incarnation
// left the view. An admitted joiner must start from a clean slate at every
// member: stale intake watermarks would discard the new incarnation's
// restarting sequence numbers, and a stale causal count would wedge its
// vector clocks forever.
func (g *groupState) purgeMember(name string) {
	delete(g.streams, name)
	delete(g.causalD, name)
	for k := range g.asymData {
		if k.origin == name {
			delete(g.asymData, k)
		}
	}
	// In-flight messages of the old incarnation go too: their sequence
	// numbers and vector-clock entries reference purged state, so they
	// could only misdeliver against the new incarnation's counters. (Any
	// still owed to the surviving members travels in the view's flush,
	// which is captured before installation purges.)
	kept := g.pendingSym[:0]
	for _, d := range g.pendingSym {
		if d.Origin != name {
			kept = append(kept, d)
		}
	}
	g.pendingSym = kept
	keptC := g.causalPend[:0]
	for _, d := range g.causalPend {
		if d.Origin != name {
			keptC = append(keptC, d)
		}
	}
	g.causalPend = keptC
}

// flushPending is this member's view-change flush contribution: every
// accepted-but-undelivered symmetric message, plus the retained
// already-delivered messages of each origin the candidate view excludes.
// Without the retained set, a message a dead origin managed to send to
// only part of the group vanishes from every pending set the moment its
// receivers deliver it, and a partitioned laggard can never obtain it —
// the surviving view would diverge on the dead member's tail. Iteration
// is sorted throughout: this code runs inside replica pairs that compare
// outputs byte-for-byte, so map-order nondeterminism here would itself
// read as a value fault.
func (g *groupState) flushPending(candidate []string) []DataMsg {
	out := append([]DataMsg(nil), g.pendingSym...)
	for _, origin := range sortedKeys(g.streams) {
		if contains(candidate, origin) {
			continue
		}
		s := g.streams[origin]
		seqs := make([]uint64, 0, len(s.retained))
		for seq := range s.retained {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			out = append(out, s.retained[seq])
		}
	}
	return out
}

// promise is the acknowledgement this member could send now: its future
// messages carry timestamps above the clock, and a peer may rely on that
// once it holds this member's data through the send watermark.
func (g *groupState) promise() AckMsg {
	return AckMsg{Group: g.name, TS: g.clock, SendSeqHW: g.outSeq}
}

// insertPendingSym inserts d keeping (TS, Origin) order.
func (g *groupState) insertPendingSym(d DataMsg) {
	i := sort.Search(len(g.pendingSym), func(i int) bool {
		p := g.pendingSym[i]
		if p.TS != d.TS {
			return p.TS > d.TS
		}
		return p.Origin >= d.Origin
	})
	g.pendingSym = append(g.pendingSym, DataMsg{})
	copy(g.pendingSym[i+1:], g.pendingSym[i:])
	g.pendingSym[i] = d
}

// recordSent retains one of our own messages for retransmission, pruning
// the retention window.
func (g *groupState) recordSent(d DataMsg) {
	g.sent[d.SenderSeq] = d
	if d.SenderSeq > sentRetention {
		delete(g.sent, d.SenderSeq-sentRetention)
	}
}

// minEffMember returns the member holding back the symmetric order — the
// one with the minimum effective observed clock — and that minimum
// (self's own clock stands in for its stream). Symmetric-order messages
// with TS at or below the minimum are safe to deliver. Ties resolve to
// the first member in sorted order, so the result is deterministic.
func (g *groupState) minEffMember(self string) (string, uint64) {
	minTS := ^uint64(0)
	who := ""
	for _, m := range g.members {
		var ts uint64
		if m == self {
			ts = g.clock
		} else {
			ts = g.stream(m).effLastTS()
		}
		if ts < minTS {
			minTS, who = ts, m
		}
	}
	return who, minTS
}

// sortedKeys returns the map's keys in sorted order. Every iteration over
// a map that can produce outputs must go through this (determinism, R1).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
