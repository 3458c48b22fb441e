package group

import (
	"sort"
	"sync/atomic"
	"time"

	failsignal "fsnewtop/internal/core"
	"fsnewtop/internal/sm"
	"fsnewtop/internal/trace"
)

// SuspectorMode selects how the machine learns about failures.
type SuspectorMode int

const (
	// SuspectPing is crash-NewTOP's suspector: periodic pings with a
	// timeout. Suspicions can be false, so groups can split without any
	// failure (Section 1).
	SuspectPing SuspectorMode = iota + 1
	// SuspectFailSignal is FS-NewTOP's suspector: it converts verified
	// fail-signals into suspicions ("the suspicions generated in
	// FS-NewTOP, unlike those in NewTOP, cannot be false", Section 3.1).
	SuspectFailSignal
)

// Config parameterises a GC machine.
type Config struct {
	// Self is this process's logical name, as peers address it.
	Self string
	// Mode selects the failure suspector.
	Mode SuspectorMode
	// PingInterval paces pings in SuspectPing mode. Default 500ms.
	PingInterval time.Duration
	// SuspectAfter is the silence threshold in SuspectPing mode.
	// Default 2s.
	SuspectAfter time.Duration
	// Trace, if non-nil, receives the machine's protocol events (round
	// open/close/blocked, acks, suspicions, view changes, sequencer
	// handoffs). Tracing never influences outputs, so two replicas of one
	// machine stay output-identical (R1) regardless of their rings.
	Trace *trace.Ring
}

func (c *Config) fillDefaults() {
	if c.Mode == 0 {
		c.Mode = SuspectPing
	}
	if c.PingInterval == 0 {
		c.PingInterval = 500 * time.Millisecond
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 2 * time.Second
	}
}

const (
	// resendAfter paces NACKs for detected gaps, and is how long the head
	// of the symmetric order may stay blocked before its promise is
	// re-announced (tickPromise).
	resendAfter = 200 * time.Millisecond
	// viewRetryAfter bounds how long a member waits on a stalled view
	// change (or a join on an answer) before (re-)proposing or asking
	// again.
	viewRetryAfter = time.Second
)

// Machine is the deterministic GC state machine. It implements sm.Machine
// and must be driven single-threaded.
type Machine struct {
	cfg    Config
	now    time.Time
	groups map[string]*groupState
	// joining tracks admissions this process is seeking into running
	// groups (joiner side of the dynamic join protocol).
	joining map[string]*pendingJoin
	// signalled remembers every process whose verified fail-signal this
	// machine has been handed. The pair below hands each fail-signal over
	// exactly once, so one that arrives before the group it concerns
	// exists here must be kept until that group does.
	signalled map[string]struct{}
	// lastHeard tracks process-level peer liveness (SuspectPing mode).
	lastHeard map[string]time.Time
	lastPing  time.Time
	// outs accumulates the current step's outputs.
	outs []sm.Output
	// quietAcks suppresses the per-accept symmetric acknowledgement while
	// a view-change flush is re-offered to intake; the install broadcasts
	// one consolidated ack instead.
	quietAcks bool
	// trace is the event ring (nil when the deployment is untraced).
	trace *trace.Ring
	// acks counts the symmetric order's acknowledgement decisions
	// (AckStats). Atomic so an observer may read while the machine steps;
	// never read by protocol logic.
	acks struct{ sent, elided, resent atomic.Uint64 }
}

// AckStats counts what the one-promise rule did with the symmetric
// order's logical acknowledgements.
type AckStats struct {
	// Sent: accepts that broadcast a fresh promise.
	Sent uint64
	// Elided: accepts whose acknowledgement would have repeated the
	// standing promise, so none left.
	Elided uint64
	// Resent: tick re-announcements of the standing promise behind a
	// blocked head (tickPromise). Nonzero means a promise or a message
	// went missing on the way to or from a peer.
	Resent uint64
}

// AckStats returns the acknowledgement counters. Safe to call from any
// goroutine.
func (m *Machine) AckStats() AckStats {
	return AckStats{Sent: m.acks.sent.Load(), Elided: m.acks.elided.Load(), Resent: m.acks.resent.Load()}
}

// New returns a GC machine for the given configuration.
func New(cfg Config) *Machine {
	cfg.fillDefaults()
	return &Machine{
		cfg:       cfg,
		trace:     cfg.Trace,
		groups:    make(map[string]*groupState),
		joining:   make(map[string]*pendingJoin),
		signalled: make(map[string]struct{}),
		lastHeard: make(map[string]time.Time),
	}
}

// SetTrace implements trace.Traceable: a fail-signal pair hands each
// machine replica its own FSO's ring after construction.
func (m *Machine) SetTrace(r *trace.Ring) { m.trace = r }

var _ sm.Machine = (*Machine)(nil)

// emit queues one output for the current step.
func (m *Machine) emit(kind string, to []string, payload []byte) {
	if len(to) == 0 {
		return
	}
	m.outs = append(m.outs, sm.Output{Kind: kind, To: to, Payload: payload})
}

// emitData queues one DataMsg for the current step, its application
// payload held by reference as a body region.
func (m *Machine) emitData(to []string, d DataMsg) {
	if len(to) == 0 {
		return
	}
	b, g := d.marshalGather()
	m.outs = append(m.outs, sm.Output{Kind: KindData, To: to, Payload: b, Gather: g})
}

// localTo is the destination list of every local output, shared: an
// output's To is never written.
var localTo = []string{sm.LocalDelivery}

// emitLocal queues one output for the local application.
func (m *Machine) emitLocal(kind string, payload []byte) {
	m.outs = append(m.outs, sm.Output{Kind: kind, To: localTo, Payload: payload})
}

// deliver emits one application delivery.
func (m *Machine) deliver(g *groupState, origin string, svc Service, payload []byte) {
	b, gb := Deliver{Group: g.name, Origin: origin, Service: svc, Payload: payload}.marshalGather()
	m.outs = append(m.outs, sm.Output{Kind: KindDeliver, To: localTo, Payload: b, Gather: gb})
}

// Step implements sm.Machine.
func (m *Machine) Step(in sm.Input) []sm.Output {
	m.outs = m.outs[:0]
	if in.From != "" && in.From != m.cfg.Self {
		m.lastHeard[in.From] = m.now
	}
	m.dispatch(in, 0)
	if len(m.outs) == 0 {
		return nil
	}
	out := make([]sm.Output, len(m.outs))
	copy(out, m.outs)
	return out
}

// dispatch routes one input to its handler, appending effects to m.outs.
// depth guards batch recursion: a batch's items are dispatched at depth 1,
// where a nested KindBatch is refused — one level is all the accumulation
// window ever produces, and the bound keeps a malformed batch from
// recursing.
func (m *Machine) dispatch(in sm.Input, depth int) {
	switch in.Kind {
	case KindJoin, KindJoinExisting, KindMcast:
		// Requests are the local application's alone. One attributed to
		// anyone else — a peer GC, another member's invocation layer, a
		// replayed input — is dropped.
		if in.From != "" {
			return
		}
	}
	switch in.Kind {
	case sm.TickKind:
		if t, err := sm.DecodeTick(in.Payload); err == nil {
			if t.After(m.now) {
				m.now = t
			}
			m.onTick()
		}
	case KindJoin:
		if j, err := UnmarshalJoinReq(in.Payload); err == nil {
			m.onJoin(j)
		}
	case KindMcast:
		if req, err := UnmarshalMcastReq(in.Payload); err == nil {
			m.onMcast(req)
		}
	case KindData:
		if d, err := UnmarshalDataMsg(in.Payload); err == nil {
			m.onData(in.From, d)
		}
	case KindAck:
		if a, err := UnmarshalAckMsg(in.Payload); err == nil {
			m.onAck(in.From, a)
		}
	case KindSeq:
		if s, err := UnmarshalSeqMsg(in.Payload); err == nil {
			m.onSeq(in.From, s)
		}
	case KindNack:
		if n, err := UnmarshalNackMsg(in.Payload); err == nil {
			m.onNack(in.From, n)
		}
	case KindPing:
		// Pong only while the pinger still shares a group with us: a
		// member expelled everywhere must be allowed to notice and
		// reconfigure on its own side.
		if in.From != "" && m.sharesGroupWith(in.From) {
			m.emit(KindPong, []string{in.From}, nil)
		}
	case KindPong:
		// lastHeard already updated above.
	case KindViewProp:
		if v, err := UnmarshalViewProp(in.Payload); err == nil {
			m.onViewProp(in.From, v)
		}
	case KindViewAck:
		if v, err := UnmarshalViewAck(in.Payload); err == nil {
			m.onViewAck(in.From, v)
		}
	case KindViewInstall:
		if v, err := UnmarshalViewInstall(in.Payload); err == nil {
			m.onViewInstall(in.From, v)
		}
	case KindJoinExisting:
		if j, err := UnmarshalJoinExistingReq(in.Payload); err == nil {
			m.onJoinExisting(j)
		}
	case KindJoinAsk:
		if j, err := UnmarshalJoinAsk(in.Payload); err == nil {
			m.onJoinAsk(in.From, j)
		}
	case KindState:
		if s, err := UnmarshalStateSnapshot(in.Payload); err == nil {
			m.onState(in.From, s)
		}
	case KindStateAck:
		if s, err := UnmarshalStateAck(in.Payload); err == nil {
			m.onStateAck(in.From, s)
		}
	case failsignal.InputFailSignal:
		if m.cfg.Mode == SuspectFailSignal && in.From != "" {
			m.signalled[in.From] = struct{}{}
			m.suspectEverywhere(in.From)
		}
	case KindBatch:
		if depth == 0 {
			if bm, err := UnmarshalBatchMsg(in.Payload); err == nil {
				for _, it := range bm.Items {
					m.dispatch(sm.Input{Kind: it.Kind, From: in.From, Payload: it.Payload}, depth+1)
				}
			}
		}
	}
}

// Groups returns the names of joined groups, sorted. Read-only inspection
// for drivers and tests.
func (m *Machine) Groups() []string { return sortedKeys(m.groups) }

// View returns the current view of one group (id 0 when not joined).
func (m *Machine) View(group string) (uint64, []string) {
	g, ok := m.groups[group]
	if !ok {
		return 0, nil
	}
	return g.viewID, append([]string(nil), g.members...)
}

// onJoin creates local state for a group with static initial membership.
// Every member is started with the same member list, so all replicas of
// all members begin in the identical view 1.
func (m *Machine) onJoin(j JoinReq) {
	if j.Group == "" || len(j.Members) == 0 {
		return
	}
	if _, exists := m.groups[j.Group]; exists {
		return
	}
	found := false
	for _, mem := range j.Members {
		if mem == m.cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return
	}
	g := newGroupState(j.Group, j.Members)
	m.groups[j.Group] = g
	m.emitLocal(KindView, ViewNote{Group: g.name, ViewID: g.viewID, Members: g.members}.Marshal())
	m.suspectSignalled(g)
}

// onTick advances time-driven behaviour: suspector pings and silence
// checks, lost-promise repair, NACK pacing, stalled-view-change retries,
// and admission progress on both sides of the join protocol.
func (m *Machine) onTick() {
	for _, name := range sortedKeys(m.groups) {
		g := m.groups[name]
		m.tickPromise(g)
		m.tickNacks(g)
		m.tickViewChange(g)
	}
	m.tickJoins()
	if m.cfg.Mode == SuspectPing {
		m.tickSuspector()
	}
}

// peers returns all distinct remote members across groups, sorted.
// Provisional (joining) groups are excluded: until admitted, the joiner
// neither pings members nor suspects them for not pinging back.
func (m *Machine) peers() []string {
	set := make(map[string]struct{})
	for _, name := range sortedKeys(m.groups) {
		if m.groups[name].joining {
			continue
		}
		for _, mem := range m.groups[name].members {
			if mem != m.cfg.Self {
				set[mem] = struct{}{}
			}
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// tickSuspector pings peers and converts prolonged silence into
// suspicions. This is the timeout mechanism whose false positives split
// groups in crash-NewTOP.
func (m *Machine) tickSuspector() {
	peers := m.peers()
	if len(peers) == 0 {
		return
	}
	if m.lastPing.IsZero() || m.now.Sub(m.lastPing) >= m.cfg.PingInterval {
		m.lastPing = m.now
		m.emit(KindPing, peers, nil)
	}
	for _, p := range peers {
		last, ok := m.lastHeard[p]
		if !ok || last.IsZero() {
			// Unheard-from or heard before our own clock started (inputs
			// can arrive ahead of the first tick): start the silence
			// window now rather than from the zero time.
			m.lastHeard[p] = m.now
			continue
		}
		if m.now.Sub(last) > m.cfg.SuspectAfter {
			m.suspectEverywhere(p)
		}
	}
}

// suspectSignalled applies the fail-signals that arrived before g existed
// here: a group created or installed with an already-signalled member
// suspects it from the start.
func (m *Machine) suspectSignalled(g *groupState) {
	for _, peer := range sortedKeys(m.signalled) {
		if g.isMember(peer) && !g.suspects[peer] {
			g.suspects[peer] = true
			m.trace.Emit(trace.EvSuspect, 0, 0, peer)
		}
	}
	m.maybePropose(g)
}

// suspectEverywhere marks peer suspected in every group that contains it
// and kicks off the membership protocol.
func (m *Machine) suspectEverywhere(peer string) {
	for _, name := range sortedKeys(m.groups) {
		g := m.groups[name]
		if g.isMember(peer) && !g.suspects[peer] {
			g.suspects[peer] = true
			m.trace.Emit(trace.EvSuspect, 0, 0, peer)
			m.maybePropose(g)
		}
	}
}
