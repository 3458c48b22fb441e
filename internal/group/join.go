package group

import (
	"sort"
	"time"

	"fsnewtop/internal/trace"
)

// Dynamic admission: a fresh process joins a running group by asking its
// current members for admission. The coordinator (least non-suspected
// member) answers with a state-transfer snapshot — the installed view,
// Lamport clock, causal vector, per-origin intake watermarks with their
// retained delivered tails, and every accepted-but-undelivered message.
// The joiner installs the snapshot as provisional state and confirms; the
// coordinator then proposes a view that *adds* the joiner, reusing the
// ordinary view-change machinery (ViewProp/ViewAck/ViewInstall) with the
// admission declared in Joins. All of this runs inside the byte-compared
// pair halves, so every iteration is sorted (R1).
//
// Messages the view delivers between the snapshot point and the install
// are not re-sent specially: the joiner's copied watermarks make the gap
// visible to the ordinary NACK protocol the moment post-install traffic
// (data or acks) arrives, and origins retransmit from their retention
// buffers. Dead origins' tails are covered by the view-change flush.

// pendingJoin is the joiner-side record of an admission in progress.
type pendingJoin struct {
	contacts []string
	lastAsk  time.Time
}

// joinerExpiry bounds how long a member keeps re-serving a joiner that
// stopped asking (it died mid-join), in units of viewRetryAfter.
const joinerExpiry = 8

// onJoinExisting starts seeking admission into a running group through the
// given contacts.
func (m *Machine) onJoinExisting(j JoinExistingReq) {
	if j.Group == "" {
		return
	}
	if _, exists := m.groups[j.Group]; exists {
		return // already joined (or provisional state already installed)
	}
	if _, asking := m.joining[j.Group]; asking {
		return
	}
	contacts := make([]string, 0, len(j.Contacts))
	for _, c := range j.Contacts {
		if c != "" && c != m.cfg.Self && !contains(contacts, c) {
			contacts = append(contacts, c)
		}
	}
	sort.Strings(contacts)
	if len(contacts) == 0 {
		return
	}
	m.joining[j.Group] = &pendingJoin{contacts: contacts, lastAsk: m.now}
	m.emit(KindJoinAsk, contacts, JoinAsk{Group: j.Group}.Marshal())
}

// onJoinAsk records an admission request at a current member. The
// coordinator answers with a snapshot; any other member relays the ask to
// it once, since the joiner's contacts need not include it (the view may
// have changed since the joiner chose them).
func (m *Machine) onJoinAsk(from string, j JoinAsk) {
	g, ok := m.groups[j.Group]
	if !ok || g.joining || from == "" || from == m.cfg.Self {
		return
	}
	joiner := from
	if j.Joiner != "" {
		if !g.isMember(from) {
			return // only a member may speak for a joiner
		}
		joiner = j.Joiner
	}
	if g.isMember(joiner) || g.suspects[joiner] {
		return // members don't join; suspects must be excluded first
	}
	js, tracked := g.joiners[joiner]
	if !tracked {
		js = &joinerState{}
		g.joiners[joiner] = js
		m.trace.Emit(trace.EvJoinAsk, g.viewID, 0, joiner)
	}
	js.lastAsk = m.now
	if coord := g.coordinator(); coord != m.cfg.Self {
		if j.Joiner == "" && coord != "" {
			m.emit(KindJoinAsk, []string{coord}, JoinAsk{Group: j.Group, Joiner: joiner}.Marshal())
		}
		return
	}
	if js.acked && js.sentViewID == g.viewID {
		// Transfer already complete at this view; the proposal path (or
		// its tick retry) owns the rest.
		m.maybePropose(g)
		return
	}
	if js.lastSend.IsZero() || m.now.Sub(js.lastSend) >= viewRetryAfter || js.sentViewID != g.viewID {
		m.sendSnapshot(g, joiner, js)
	}
}

// sendSnapshot transfers the group state to one joiner.
func (m *Machine) sendSnapshot(g *groupState, joiner string, js *joinerState) {
	js.sentViewID = g.viewID
	js.acked = false
	js.lastSend = m.now
	snap := m.buildSnapshot(g)
	m.trace.Emit(trace.EvStateSnap, g.viewID, uint64(len(snap.Streams)), joiner)
	m.emit(KindState, []string{joiner}, snap.Marshal())
}

// buildSnapshot captures this member's group state for transfer. The
// snapshot must be self-consistent: the per-origin NextSeq watermarks
// count every message in PendingSym/CausalPend/AsymData as received, and
// the builder's own stream entry is synthesized (a member holds no intake
// stream for itself) so the joiner treats its past output as seen.
func (m *Machine) buildSnapshot(g *groupState) StateSnapshot {
	snap := StateSnapshot{
		Group:      g.name,
		ViewID:     g.viewID,
		Epoch:      g.lastEpoch,
		Members:    append([]string(nil), g.members...),
		Clock:      g.clock,
		CausalD:    encodeVC(g.causalD),
		PendingSym: g.pendingSym.appendTo(nil),
		CausalPend: append([]DataMsg(nil), g.causalPend...),
	}

	names := g.streamNames()
	if g.lookupStream(m.cfg.Self) == nil {
		names = mergeSorted(names, []string{m.cfg.Self})
	}
	for _, name := range names {
		st := StreamState{Member: name}
		if s := g.lookupStream(name); s != nil {
			st.NextSeq = s.nextSeq
			st.LastDataTS = s.lastDataTS
			st.AckTS, st.AckHW = s.ackTS, s.ackHW
			st.SymDelivered = s.symDelivered
			st.AsymDelivered = s.asymDelivered
			st.Retained = s.retained.appendTo(nil)
		} else {
			st.NextSeq = 1
		}
		if name == m.cfg.Self {
			// Our own outbound state, phrased as the joiner's intake: it has
			// "received" everything we ever sent, and our future messages
			// carry timestamps above our current clock.
			st.NextSeq = g.outSeq + 1
			st.LastDataTS = g.clock
			st.AckTS, st.AckHW = g.clock, g.outSeq
		}
		snap.Streams = append(snap.Streams, st)
	}

	keys := make([]asymKey, 0, len(g.asymData))
	for k := range g.asymData {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].origin != keys[j].origin {
			return keys[i].origin < keys[j].origin
		}
		return keys[i].seq < keys[j].seq
	})
	for _, k := range keys {
		snap.AsymData = append(snap.AsymData, g.asymData[k])
	}
	return snap
}

// onState installs a snapshot as provisional group state at the joiner and
// confirms to the sender. A re-sent snapshot (the view moved on while we
// waited) replaces the provisional state wholesale.
func (m *Machine) onState(from string, snap StateSnapshot) {
	if snap.Group == "" || from == "" || from == m.cfg.Self {
		return
	}
	if existing, ok := m.groups[snap.Group]; ok && !existing.joining {
		return // full member: nothing to install
	}
	if _, asking := m.joining[snap.Group]; !asking {
		if existing, ok := m.groups[snap.Group]; !ok || !existing.joining {
			return // unsolicited snapshot
		}
	}
	sort.Strings(snap.Members)
	if len(snap.Members) == 0 || !contains(snap.Members, from) || contains(snap.Members, m.cfg.Self) {
		// The sender must be a member; a view that already lists us means
		// an old incarnation of our name is still being excluded — wait.
		return
	}

	g := newGroupState(snap.Group, snap.Members)
	g.joining = true
	g.viewID = snap.ViewID
	g.lastEpoch = snap.Epoch
	g.clock = snap.Clock
	for _, e := range snap.CausalD {
		g.causalD[e.Member] = e.Count
	}
	for _, st := range snap.Streams {
		if st.Member == "" {
			continue
		}
		s := newMemberStream()
		if st.NextSeq > 0 {
			s.nextSeq = st.NextSeq
		}
		s.lastDataTS = st.LastDataTS
		s.ackTS, s.ackHW = st.AckTS, st.AckHW
		s.symDelivered = st.SymDelivered
		s.asymDelivered = st.AsymDelivered
		sort.SliceStable(st.Retained, func(i, j int) bool { return st.Retained[i].SenderSeq < st.Retained[j].SenderSeq })
		for _, d := range st.Retained {
			s.retain(d)
		}
		g.putStream(st.Member, s)
	}
	pending := append([]DataMsg(nil), snap.PendingSym...)
	sort.SliceStable(pending, func(i, j int) bool {
		if pending[i].TS != pending[j].TS {
			return pending[i].TS < pending[j].TS
		}
		return pending[i].Origin < pending[j].Origin
	})
	for _, d := range pending {
		g.pendingSym.pushBack(d)
	}
	g.causalPend = append([]DataMsg(nil), snap.CausalPend...)
	for _, d := range snap.AsymData {
		g.asymData[asymKey{d.Origin, d.SenderSeq}] = d
	}
	m.groups[snap.Group] = g
	m.suspectSignalled(g)

	m.trace.Emit(trace.EvStateAck, snap.ViewID, 0, from)
	m.emit(KindStateAck, []string{from}, StateAck{Group: snap.Group, ViewID: snap.ViewID}.Marshal())
}

// onStateAck completes a transfer at the coordinator and triggers the
// admission proposal; a stale ack (the view moved on) provokes a fresh
// snapshot.
func (m *Machine) onStateAck(from string, sa StateAck) {
	g, ok := m.groups[sa.Group]
	if !ok || g.joining {
		return
	}
	js, tracked := g.joiners[from]
	if !tracked {
		return
	}
	if g.coordinator() != m.cfg.Self {
		return
	}
	if sa.ViewID != g.viewID {
		m.sendSnapshot(g, from, js)
		return
	}
	js.sentViewID = sa.ViewID
	js.acked = true
	m.trace.Emit(trace.EvStateAck, sa.ViewID, 0, from)
	m.maybePropose(g)
}

// tickJoins drives both sides of admission: joiners re-ask until admitted,
// and coordinators re-send snapshots (and expire joiners that went silent).
func (m *Machine) tickJoins() {
	// Joiner side: re-ask while the admission is in flight.
	for _, name := range sortedKeys(m.joining) {
		pj := m.joining[name]
		if g, ok := m.groups[name]; ok && !g.joining {
			delete(m.joining, name)
			continue
		}
		if m.now.Sub(pj.lastAsk) >= viewRetryAfter {
			pj.lastAsk = m.now
			m.emit(KindJoinAsk, pj.contacts, JoinAsk{Group: name}.Marshal())
		}
	}

	// Member side: the coordinator re-drives stalled transfers; everyone
	// expires joiners that stopped asking.
	for _, name := range sortedKeys(m.groups) {
		g := m.groups[name]
		if g.joining {
			continue
		}
		for _, j := range sortedKeys(g.joiners) {
			js := g.joiners[j]
			if !js.lastAsk.IsZero() && m.now.Sub(js.lastAsk) > joinerExpiry*viewRetryAfter {
				delete(g.joiners, j)
				continue
			}
			if g.coordinator() != m.cfg.Self {
				continue
			}
			if js.acked && js.sentViewID == g.viewID {
				continue // proposal path owns it from here
			}
			if js.lastSend.IsZero() || m.now.Sub(js.lastSend) >= viewRetryAfter {
				m.sendSnapshot(g, j, js)
			}
		}
	}
}
