package group

import (
	"bytes"
	"fmt"

	"fsnewtop/internal/codec"
)

// Input kinds consumed by the machine. "Local" kinds come from the
// co-located invocation layer; the rest arrive from peer GC processes.
const (
	// KindJoin (local) creates a group with a static initial membership.
	KindJoin = "gc.join"
	// KindMcast (local) requests a multicast with a given service.
	KindMcast = "gc.mcast"
	// KindData carries one multicast message between GC processes.
	KindData = "gc.data"
	// KindAck carries a symmetric-order logical acknowledgement.
	KindAck = "gc.ack"
	// KindSeq carries sequencer assignments for asymmetric total order.
	KindSeq = "gc.seq"
	// KindNack requests retransmission of missing sender sequences.
	KindNack = "gc.nack"
	// KindPing and KindPong implement the crash-mode failure suspector.
	KindPing = "gc.ping"
	// KindPong answers a ping.
	KindPong = "gc.pong"
	// KindViewProp proposes a new view (coordinator → candidates).
	KindViewProp = "gc.viewprop"
	// KindViewAck accepts a proposal and reports pending messages.
	KindViewAck = "gc.viewack"
	// KindViewInstall commits a new view with its flush set.
	KindViewInstall = "gc.viewinstall"
	// KindJoinExisting (local) asks the machine to seek admission into a
	// group that is already running, via its current members.
	KindJoinExisting = "gc.joinx"
	// KindJoinAsk requests admission from a current member (joiner → view).
	KindJoinAsk = "gc.joinask"
	// KindState carries the coordinator's state-transfer snapshot to a
	// joiner.
	KindState = "gc.state"
	// KindStateAck confirms a snapshot installation (joiner → coordinator).
	KindStateAck = "gc.stateack"
)

// Output kinds produced for the local application (sm.LocalDelivery).
const (
	// KindDeliver hands one delivered message to the application.
	KindDeliver = "gc.deliver"
	// KindView announces an installed view to the application.
	KindView = "gc.view"
)

// The kinds are names every decoder of this package reads over and over.
func init() {
	codec.Intern(KindJoin, KindMcast, KindData, KindAck, KindSeq, KindNack,
		KindPing, KindPong, KindViewProp, KindViewAck, KindViewInstall, KindJoinExisting,
		KindJoinAsk, KindState, KindStateAck, KindDeliver, KindView, KindBatch)
}

// JoinReq is the payload of KindJoin.
type JoinReq struct {
	Group   string
	Members []string
}

// Marshal returns the canonical encoding.
func (j JoinReq) Marshal() []byte {
	w := codec.NewWriter(64)
	w.String(j.Group)
	w.StringSlice(j.Members)
	return w.Bytes()
}

// UnmarshalJoinReq decodes a JoinReq.
func UnmarshalJoinReq(b []byte) (JoinReq, error) {
	r := codec.NewReader(b)
	j := JoinReq{Group: r.Name(), Members: r.StringSlice()}
	if err := r.Finish(); err != nil {
		return JoinReq{}, fmt.Errorf("group: decoding join: %w", err)
	}
	return j, nil
}

// McastReq is the payload of KindMcast.
type McastReq struct {
	Group   string
	Service Service
	Payload []byte
}

// Marshal returns the canonical encoding.
func (m McastReq) Marshal() []byte {
	b, _ := m.MarshalBodies()
	return b
}

// MarshalBodies returns the canonical encoding and the body region of its
// application payload.
func (m McastReq) MarshalBodies() ([]byte, []codec.Region) {
	w := codec.NewWriter(4 + len(m.Group) + 1 + 4 + len(m.Payload))
	w.String(m.Group)
	w.U8(uint8(m.Service))
	w.Body32(m.Payload)
	return w.Bytes(), w.Bodies()
}

// UnmarshalMcastReq decodes a McastReq.
func UnmarshalMcastReq(b []byte) (McastReq, error) {
	r := codec.NewReader(b)
	m := McastReq{Group: r.Name(), Service: Service(r.U8())}
	m.Payload = r.Bytes32()
	if err := r.Finish(); err != nil {
		return McastReq{}, fmt.Errorf("group: decoding mcast: %w", err)
	}
	return m, nil
}

// VCEntry is one component of an encoded vector clock. Entries are always
// encoded sorted by member, keeping the encoding canonical.
type VCEntry struct {
	Member string
	Count  uint64
}

// DataMsg carries one multicast between GC processes.
type DataMsg struct {
	Group     string
	Origin    string
	Service   Service
	SenderSeq uint64 // per-(group, origin) sequence; 0 for Unreliable
	TS        uint64 // Lamport timestamp (TotalSym)
	VC        []VCEntry
	Payload   []byte
}

// size is the exact length of d's encoding.
func (d DataMsg) size() int {
	n := 4 + len(d.Group) + 4 + len(d.Origin) + 1 + 8 + 8 + 4 + 4 + len(d.Payload)
	for _, e := range d.VC {
		n += 4 + len(e.Member) + 8
	}
	return n
}

func (d DataMsg) encode(w *codec.Writer) {
	w.String(d.Group)
	w.String(d.Origin)
	w.U8(uint8(d.Service))
	w.U64(d.SenderSeq)
	w.U64(d.TS)
	w.U32(uint32(len(d.VC)))
	for _, e := range d.VC {
		w.String(e.Member)
		w.U64(e.Count)
	}
	w.Body32(d.Payload)
}

func decodeDataMsg(r *codec.Reader) DataMsg {
	d := DataMsg{
		Group:     r.Name(),
		Origin:    r.Name(),
		Service:   Service(r.U8()),
		SenderSeq: r.U64(),
		TS:        r.U64(),
	}
	n := int(r.U32())
	if r.Err() != nil || n > 1<<20 {
		return d
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		d.VC = append(d.VC, VCEntry{Member: r.Name(), Count: r.U64()})
	}
	d.Payload = r.Bytes32()
	return d
}

// Marshal returns the canonical encoding.
func (d DataMsg) Marshal() []byte {
	b, _ := d.marshalBodies()
	return b
}

// marshalBodies returns the canonical encoding and the body region of its
// application payload.
func (d DataMsg) marshalBodies() ([]byte, []codec.Region) {
	w := codec.NewWriter(d.size())
	d.encode(w)
	return w.Bytes(), w.Bodies()
}

// UnmarshalDataMsg decodes a DataMsg.
func UnmarshalDataMsg(b []byte) (DataMsg, error) {
	r := codec.NewReader(b)
	d := decodeDataMsg(r)
	if err := r.Finish(); err != nil {
		return DataMsg{}, fmt.Errorf("group: decoding data: %w", err)
	}
	return d, nil
}

// AckMsg is a symmetric-order logical acknowledgement: the acker promises
// that its future messages carry timestamps greater than TS, valid once
// the receiver holds all of the acker's data up to SendSeqHW.
type AckMsg struct {
	Group     string
	TS        uint64
	SendSeqHW uint64
}

// Marshal returns the canonical encoding.
func (a AckMsg) Marshal() []byte {
	w := codec.NewWriter(32)
	w.String(a.Group)
	w.U64(a.TS)
	w.U64(a.SendSeqHW)
	return w.Bytes()
}

// UnmarshalAckMsg decodes an AckMsg.
func UnmarshalAckMsg(b []byte) (AckMsg, error) {
	r := codec.NewReader(b)
	a := AckMsg{Group: r.Name(), TS: r.U64(), SendSeqHW: r.U64()}
	if err := r.Finish(); err != nil {
		return AckMsg{}, fmt.Errorf("group: decoding ack: %w", err)
	}
	return a, nil
}

// SeqAssign maps one message to its global delivery position.
type SeqAssign struct {
	Origin    string
	SenderSeq uint64
	Global    uint64
}

// SeqMsg carries sequencer assignments (asymmetric total order). Epoch
// identifies the sequencer incarnation: assignments from superseded epochs
// are discarded after a view change.
type SeqMsg struct {
	Group       string
	Epoch       uint64
	Assignments []SeqAssign
}

// Marshal returns the canonical encoding.
func (s SeqMsg) Marshal() []byte {
	w := codec.NewWriter(32 + 32*len(s.Assignments))
	w.String(s.Group)
	w.U64(s.Epoch)
	w.U32(uint32(len(s.Assignments)))
	for _, a := range s.Assignments {
		w.String(a.Origin)
		w.U64(a.SenderSeq)
		w.U64(a.Global)
	}
	return w.Bytes()
}

// UnmarshalSeqMsg decodes a SeqMsg.
func UnmarshalSeqMsg(b []byte) (SeqMsg, error) {
	r := codec.NewReader(b)
	s := SeqMsg{Group: r.Name(), Epoch: r.U64()}
	n := int(r.U32())
	if r.Err() == nil && n <= 1<<20 {
		for i := 0; i < n && r.Err() == nil; i++ {
			s.Assignments = append(s.Assignments, SeqAssign{
				Origin:    r.Name(),
				SenderSeq: r.U64(),
				Global:    r.U64(),
			})
		}
	}
	if err := r.Finish(); err != nil {
		return SeqMsg{}, fmt.Errorf("group: decoding seq: %w", err)
	}
	return s, nil
}

// NackMsg asks a message's origin to retransmit specific sender sequences.
type NackMsg struct {
	Group   string
	Missing []uint64
}

// Marshal returns the canonical encoding.
func (n NackMsg) Marshal() []byte {
	w := codec.NewWriter(24 + 8*len(n.Missing))
	w.String(n.Group)
	w.U64Slice(n.Missing)
	return w.Bytes()
}

// UnmarshalNackMsg decodes a NackMsg.
func UnmarshalNackMsg(b []byte) (NackMsg, error) {
	r := codec.NewReader(b)
	n := NackMsg{Group: r.Name(), Missing: r.U64Slice()}
	if err := r.Finish(); err != nil {
		return NackMsg{}, fmt.Errorf("group: decoding nack: %w", err)
	}
	return n, nil
}

// ViewProp proposes view (ViewID, Members) for a group; Epoch disambiguates
// successive proposals for the same ViewID as suspicions accumulate. Joins
// lists the proposed members that are not part of the current view — the
// admissions driven by a completed state transfer. Every other proposed
// member must already be in the view, so a proposal can only shrink the
// current membership or extend it with explicitly-declared joiners.
type ViewProp struct {
	Group   string
	ViewID  uint64
	Epoch   uint64
	Members []string
	Joins   []string
}

// Marshal returns the canonical encoding.
func (v ViewProp) Marshal() []byte {
	w := codec.NewWriter(64)
	w.String(v.Group)
	w.U64(v.ViewID)
	w.U64(v.Epoch)
	w.StringSlice(v.Members)
	w.StringSlice(v.Joins)
	return w.Bytes()
}

// UnmarshalViewProp decodes a ViewProp.
func UnmarshalViewProp(b []byte) (ViewProp, error) {
	r := codec.NewReader(b)
	v := ViewProp{Group: r.Name(), ViewID: r.U64(), Epoch: r.U64(), Members: r.StringSlice(), Joins: r.StringSlice()}
	if err := r.Finish(); err != nil {
		return ViewProp{}, fmt.Errorf("group: decoding view proposal: %w", err)
	}
	return v, nil
}

// ViewAck accepts a proposal and reports the acker's pending (received but
// undelivered) totally-ordered messages for the flush, together with the
// acker's logical clock. For proposals that admit joiners the clock
// matters: symmetric delivery freezes at the acker from this moment until
// the install, so the maximum acked clock bounds every timestamp any
// member can have delivered before installing — the floor a joiner's own
// clock must clear before it may mint timestamps of its own.
//
// Suspects carries the acker's suspect set back to the coordinator —
// suspicion sharing in the reverse direction of the proposal's. Verified
// fail-signals are broadcast once and the broadcast is lossy; a
// coordinator that missed one would otherwise keep proposing a candidate
// set containing the dead member, whose ack it waits on forever.
type ViewAck struct {
	Group    string
	ViewID   uint64
	Epoch    uint64
	Clock    uint64
	Suspects []string
	Pending  []DataMsg
}

// Marshal returns the canonical encoding.
func (v ViewAck) Marshal() []byte {
	w := codec.NewWriter(64)
	w.String(v.Group)
	w.U64(v.ViewID)
	w.U64(v.Epoch)
	w.U64(v.Clock)
	w.StringSlice(v.Suspects)
	encodeDataMsgs(w, v.Pending)
	return w.Bytes()
}

// UnmarshalViewAck decodes a ViewAck.
func UnmarshalViewAck(b []byte) (ViewAck, error) {
	r := codec.NewReader(b)
	v := ViewAck{Group: r.Name(), ViewID: r.U64(), Epoch: r.U64(), Clock: r.U64(), Suspects: r.StringSlice()}
	v.Pending = decodeDataMsgs(r)
	if err := r.Finish(); err != nil {
		return ViewAck{}, fmt.Errorf("group: decoding view ack: %w", err)
	}
	return v, nil
}

// ViewInstall commits a view together with the flush set every survivor
// must deliver before installing. Joins mirrors the accepted proposal's
// admissions, so receivers can validate the coordinator (the least member
// of the pre-join view) and reset stale per-joiner state. ClockFloor is
// the maximum logical clock across the collected acknowledgements:
// because delivery freezes at each member once it acks a join-bearing
// proposal, no member can have delivered a timestamp above the floor
// before installing, so a joiner that raises its clock to the floor can
// never mint a timestamp that sorts under an already-delivered message.
type ViewInstall struct {
	Group      string
	ViewID     uint64
	Epoch      uint64
	ClockFloor uint64
	Members    []string
	Joins      []string
	Flush      []DataMsg
}

// Marshal returns the canonical encoding.
func (v ViewInstall) Marshal() []byte {
	w := codec.NewWriter(128)
	w.String(v.Group)
	w.U64(v.ViewID)
	w.U64(v.Epoch)
	w.U64(v.ClockFloor)
	w.StringSlice(v.Members)
	w.StringSlice(v.Joins)
	encodeDataMsgs(w, v.Flush)
	return w.Bytes()
}

// UnmarshalViewInstall decodes a ViewInstall.
func UnmarshalViewInstall(b []byte) (ViewInstall, error) {
	r := codec.NewReader(b)
	v := ViewInstall{Group: r.Name(), ViewID: r.U64(), Epoch: r.U64(), ClockFloor: r.U64(), Members: r.StringSlice(), Joins: r.StringSlice()}
	v.Flush = decodeDataMsgs(r)
	if err := r.Finish(); err != nil {
		return ViewInstall{}, fmt.Errorf("group: decoding view install: %w", err)
	}
	return v, nil
}

// JoinExistingReq is the payload of KindJoinExisting: a local request to
// seek admission into a running group through any of the given contacts
// (current members of the group).
type JoinExistingReq struct {
	Group    string
	Contacts []string
}

// Marshal returns the canonical encoding.
func (j JoinExistingReq) Marshal() []byte {
	w := codec.NewWriter(64)
	w.String(j.Group)
	w.StringSlice(j.Contacts)
	return w.Bytes()
}

// UnmarshalJoinExistingReq decodes a JoinExistingReq.
func UnmarshalJoinExistingReq(b []byte) (JoinExistingReq, error) {
	r := codec.NewReader(b)
	j := JoinExistingReq{Group: r.Name(), Contacts: r.StringSlice()}
	if err := r.Finish(); err != nil {
		return JoinExistingReq{}, fmt.Errorf("group: decoding join-existing: %w", err)
	}
	return j, nil
}

// JoinAsk is the payload of KindJoinAsk. A joiner's own ask leaves Joiner
// empty (its identity is the sender); a member's relay names it.
type JoinAsk struct {
	Group  string
	Joiner string
}

// Marshal returns the canonical encoding.
func (j JoinAsk) Marshal() []byte {
	w := codec.NewWriter(16 + len(j.Joiner))
	w.String(j.Group)
	w.String(j.Joiner)
	return w.Bytes()
}

// UnmarshalJoinAsk decodes a JoinAsk.
func UnmarshalJoinAsk(b []byte) (JoinAsk, error) {
	r := codec.NewReader(b)
	j := JoinAsk{Group: r.Name(), Joiner: r.Name()}
	if err := r.Finish(); err != nil {
		return JoinAsk{}, fmt.Errorf("group: decoding join ask: %w", err)
	}
	return j, nil
}

// StreamState is one member's per-origin intake state inside a snapshot.
type StreamState struct {
	Member        string
	NextSeq       uint64
	LastDataTS    uint64
	AckTS         uint64
	AckHW         uint64
	SymDelivered  uint64
	AsymDelivered uint64
	// Retained is the origin's retained delivered tail, ascending by
	// sender sequence.
	Retained []DataMsg
}

// StateSnapshot is the coordinator's state transfer to a joiner: the
// installed view, the Lamport clock, the causal delivery vector, every
// origin's intake watermarks plus retained delivered tail, and every
// accepted-but-undelivered message. The undelivered sets must travel with
// the watermarks: the copied NextSeq counts those messages as received, so
// omitting them would open gaps the NACK protocol can never detect.
type StateSnapshot struct {
	Group      string
	ViewID     uint64
	Epoch      uint64
	Members    []string
	Clock      uint64
	CausalD    []VCEntry
	Streams    []StreamState
	PendingSym []DataMsg
	CausalPend []DataMsg
	AsymData   []DataMsg
}

func encodeDataMsgs(w *codec.Writer, ds []DataMsg) {
	w.U32(uint32(len(ds)))
	for _, d := range ds {
		d.encode(w)
	}
}

// decodeDataMsgs reads a count-prefixed run of messages out of a container
// (view ack, view install, state snapshot). The machine keeps each message
// for as long as retransmission may need it, and one survivor must not pin
// the whole container: each payload is a small field of a large frame, so
// it is copied.
func decodeDataMsgs(r *codec.Reader) []DataMsg {
	n := int(r.U32())
	if r.Err() != nil || n > 1<<20 {
		return nil
	}
	var out []DataMsg
	for i := 0; i < n && r.Err() == nil; i++ {
		d := decodeDataMsg(r)
		d.Payload = bytes.Clone(d.Payload)
		out = append(out, d)
	}
	return out
}

// Marshal returns the canonical encoding.
func (s StateSnapshot) Marshal() []byte {
	w := codec.NewWriter(256)
	w.String(s.Group)
	w.U64(s.ViewID)
	w.U64(s.Epoch)
	w.StringSlice(s.Members)
	w.U64(s.Clock)
	w.U32(uint32(len(s.CausalD)))
	for _, e := range s.CausalD {
		w.String(e.Member)
		w.U64(e.Count)
	}
	w.U32(uint32(len(s.Streams)))
	for _, st := range s.Streams {
		w.String(st.Member)
		w.U64(st.NextSeq)
		w.U64(st.LastDataTS)
		w.U64(st.AckTS)
		w.U64(st.AckHW)
		w.U64(st.SymDelivered)
		w.U64(st.AsymDelivered)
		encodeDataMsgs(w, st.Retained)
	}
	encodeDataMsgs(w, s.PendingSym)
	encodeDataMsgs(w, s.CausalPend)
	encodeDataMsgs(w, s.AsymData)
	return w.Bytes()
}

// UnmarshalStateSnapshot decodes a StateSnapshot.
func UnmarshalStateSnapshot(b []byte) (StateSnapshot, error) {
	r := codec.NewReader(b)
	s := StateSnapshot{
		Group:   r.Name(),
		ViewID:  r.U64(),
		Epoch:   r.U64(),
		Members: r.StringSlice(),
		Clock:   r.U64(),
	}
	n := int(r.U32())
	if r.Err() == nil && n <= 1<<20 {
		for i := 0; i < n && r.Err() == nil; i++ {
			s.CausalD = append(s.CausalD, VCEntry{Member: r.Name(), Count: r.U64()})
		}
	}
	n = int(r.U32())
	if r.Err() == nil && n <= 1<<20 {
		for i := 0; i < n && r.Err() == nil; i++ {
			st := StreamState{
				Member:        r.Name(),
				NextSeq:       r.U64(),
				LastDataTS:    r.U64(),
				AckTS:         r.U64(),
				AckHW:         r.U64(),
				SymDelivered:  r.U64(),
				AsymDelivered: r.U64(),
			}
			st.Retained = decodeDataMsgs(r)
			s.Streams = append(s.Streams, st)
		}
	}
	s.PendingSym = decodeDataMsgs(r)
	s.CausalPend = decodeDataMsgs(r)
	s.AsymData = decodeDataMsgs(r)
	if err := r.Finish(); err != nil {
		return StateSnapshot{}, fmt.Errorf("group: decoding state snapshot: %w", err)
	}
	return s, nil
}

// StateAck confirms a joiner installed the snapshot taken at ViewID.
type StateAck struct {
	Group  string
	ViewID uint64
}

// Marshal returns the canonical encoding.
func (s StateAck) Marshal() []byte {
	w := codec.NewWriter(24)
	w.String(s.Group)
	w.U64(s.ViewID)
	return w.Bytes()
}

// UnmarshalStateAck decodes a StateAck.
func UnmarshalStateAck(b []byte) (StateAck, error) {
	r := codec.NewReader(b)
	s := StateAck{Group: r.Name(), ViewID: r.U64()}
	if err := r.Finish(); err != nil {
		return StateAck{}, fmt.Errorf("group: decoding state ack: %w", err)
	}
	return s, nil
}

// Deliver is the local-delivery payload handed to the application.
type Deliver struct {
	Group   string
	Origin  string
	Service Service
	Payload []byte
}

// Marshal returns the canonical encoding.
func (d Deliver) Marshal() []byte {
	b, _ := d.marshalBodies()
	return b
}

// marshalBodies returns the canonical encoding and the body region of its
// application payload.
func (d Deliver) marshalBodies() ([]byte, []codec.Region) {
	w := codec.NewWriter(4 + len(d.Group) + 4 + len(d.Origin) + 1 + 4 + len(d.Payload))
	w.String(d.Group)
	w.String(d.Origin)
	w.U8(uint8(d.Service))
	w.Body32(d.Payload)
	return w.Bytes(), w.Bodies()
}

// UnmarshalDeliver decodes a Deliver.
func UnmarshalDeliver(b []byte) (Deliver, error) {
	r := codec.NewReader(b)
	d := Deliver{Group: r.Name(), Origin: r.Name(), Service: Service(r.U8())}
	d.Payload = r.Bytes32()
	if err := r.Finish(); err != nil {
		return Deliver{}, fmt.Errorf("group: decoding deliver: %w", err)
	}
	return d, nil
}

// ViewNote is the local payload announcing an installed view.
type ViewNote struct {
	Group   string
	ViewID  uint64
	Members []string
}

// Marshal returns the canonical encoding.
func (v ViewNote) Marshal() []byte {
	w := codec.NewWriter(64)
	w.String(v.Group)
	w.U64(v.ViewID)
	w.StringSlice(v.Members)
	return w.Bytes()
}

// UnmarshalViewNote decodes a ViewNote.
func UnmarshalViewNote(b []byte) (ViewNote, error) {
	r := codec.NewReader(b)
	v := ViewNote{Group: r.Name(), ViewID: r.U64(), Members: r.StringSlice()}
	if err := r.Finish(); err != nil {
		return ViewNote{}, fmt.Errorf("group: decoding view note: %w", err)
	}
	return v, nil
}
