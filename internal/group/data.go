package group

import (
	"sort"

	"fsnewtop/internal/trace"
)

// onMcast handles a local multicast request: build the DataMsg for the
// requested service, disseminate it, and run the service's send-side
// bookkeeping.
func (m *Machine) onMcast(req McastReq) {
	g, ok := m.groups[req.Group]
	if !ok || g.joining || !req.Service.valid() {
		return
	}
	others := g.others(m.cfg.Self)

	if req.Service == Unreliable {
		d := DataMsg{Group: g.name, Origin: m.cfg.Self, Service: Unreliable, Payload: req.Payload}
		m.emit(KindData, others, d.Marshal())
		m.deliver(g, m.cfg.Self, Unreliable, req.Payload)
		return
	}

	g.outSeq++
	d := DataMsg{
		Group:     g.name,
		Origin:    m.cfg.Self,
		Service:   req.Service,
		SenderSeq: g.outSeq,
		Payload:   req.Payload,
	}

	switch req.Service {
	case Reliable:
		m.emit(KindData, others, d.Marshal())
		m.deliver(g, m.cfg.Self, Reliable, req.Payload)

	case Causal:
		g.causalD[m.cfg.Self]++
		d.VC = encodeVC(g.causalD)
		m.emit(KindData, others, d.Marshal())
		// Own causal messages are delivered at send: nothing we sent can
		// causally precede them.
		m.deliver(g, m.cfg.Self, Causal, req.Payload)

	case TotalSym:
		g.clock++
		d.TS = g.clock
		m.trace.Emit(trace.EvRoundOpen, d.TS, d.SenderSeq, m.cfg.Self)
		m.emit(KindData, others, d.Marshal())
		g.insertPendingSym(d)
		m.drainSym(g)

	case TotalAsym:
		m.emit(KindData, others, d.Marshal())
		g.asymData[asymKey{m.cfg.Self, d.SenderSeq}] = d
		if g.sequencer() == m.cfg.Self {
			m.assignGlobals(g, []asymKey{{m.cfg.Self, d.SenderSeq}})
		}
	}
	g.recordSent(d)
}

// encodeVC renders a delivery vector as sorted entries.
func encodeVC(d map[string]uint64) []VCEntry {
	out := make([]VCEntry, 0, len(d))
	for _, k := range sortedKeys(d) {
		out = append(out, VCEntry{Member: k, Count: d[k]})
	}
	return out
}

// onData is the receive-side intake: per-origin sequencing for every
// service except Unreliable, then dispatch to the service protocol.
func (m *Machine) onData(from string, d DataMsg) {
	g, ok := m.groups[d.Group]
	if !ok {
		return
	}
	// Data must come from its origin (retransmissions included), and the
	// origin must still be a member.
	if d.Origin != from || !g.isMember(d.Origin) || d.Origin == m.cfg.Self {
		return
	}
	if d.Service == Unreliable {
		m.deliver(g, d.Origin, Unreliable, d.Payload)
		return
	}
	m.intakeData(g, d)
}

// intakeData runs the per-origin contiguity watermark for one message:
// duplicates drop, out-of-order messages buffer, and in-order messages
// (plus any buffered follow-on they unblock) go through the service
// protocol. Shared by the network receive path and the joiner's
// view-change flush intake.
func (m *Machine) intakeData(g *groupState, d DataMsg) {
	s := g.stream(d.Origin)
	switch {
	case d.SenderSeq < s.nextSeq:
		// Duplicate or already-superseded retransmission.
		return
	case d.SenderSeq > s.nextSeq:
		if len(s.buffered) < sentRetention {
			s.buffered[d.SenderSeq] = d
		}
		return
	}
	// Advance the contiguity watermark before running the service
	// protocol: ack gating inside acceptData must see this message as
	// received.
	s.nextSeq++
	m.acceptData(g, d)
	for {
		next, ok := s.buffered[s.nextSeq]
		if !ok {
			break
		}
		delete(s.buffered, s.nextSeq)
		s.nextSeq++
		m.acceptData(g, next)
	}
}

// acceptData processes one in-order message through its service protocol.
func (m *Machine) acceptData(g *groupState, d DataMsg) {
	s := g.stream(d.Origin)
	if d.TS > s.lastDataTS {
		s.lastDataTS = d.TS
	}
	switch d.Service {
	case Reliable:
		m.deliver(g, d.Origin, Reliable, d.Payload)

	case Causal:
		g.causalPend = append(g.causalPend, d)
		m.drainCausal(g)

	case TotalSym:
		if d.TS > g.clock {
			g.clock = d.TS
		}
		m.trace.Emit(trace.EvRoundOpen, d.TS, d.SenderSeq, d.Origin)
		g.insertPendingSym(d)
		// The logical acknowledgement that makes the symmetric protocol
		// message-intensive: every accepted message is acknowledged to the
		// whole group — by a fresh promise when the accept moved the clock,
		// by the standing one otherwise. During a view-change flush intake
		// the per-accept acks are suppressed; the install's consolidated
		// ack covers the batch.
		if !m.quietAcks {
			m.ackAccept(g)
		}

	case TotalAsym:
		g.asymData[asymKey{d.Origin, d.SenderSeq}] = d
		if g.sequencer() == m.cfg.Self {
			m.assignGlobals(g, []asymKey{{d.Origin, d.SenderSeq}})
		}
		m.drainAsym(g)
	}
	// An accept of any service moves the origin's contiguity watermark,
	// which can make its gated ack usable (ackHW <= highestContig) and so
	// raise its effective clock: the symmetric order is re-evaluated in
	// the same step, never left for a later ack to find.
	m.drainSym(g)
}

// tickNacks requests retransmission for any gaps that have outlasted the
// resend interval. A gap is visible in two ways: a buffered out-of-order
// message, or an acknowledgement watermark above our contiguous intake
// (the origin acked having *sent* sequences we have never seen — this is
// how a message lost to us alone is detected).
func (m *Machine) tickNacks(g *groupState) {
	if g.joining {
		// Origins ignore NACKs from non-members; save the traffic until
		// the admitting view installs.
		return
	}
	for _, origin := range sortedKeys(g.streams) {
		s := g.streams[origin]
		if !g.isMember(origin) || origin == m.cfg.Self {
			continue
		}
		if s.gapTarget() < s.nextSeq {
			continue // no gap
		}
		if !s.lastNack.IsZero() && m.now.Sub(s.lastNack) < resendAfter {
			continue
		}
		m.nack(g, origin)
	}
}

// nack sends origin one NACK listing the sequences missing from its
// stream, up to maxNackBatch. The list may be empty: the NACK then only
// asks for the origin's current promise (tickPromise).
func (m *Machine) nack(g *groupState, origin string) {
	s := g.stream(origin)
	s.lastNack = m.now
	target := s.gapTarget()
	missing := make([]uint64, 0, maxNackBatch)
	for seq := s.nextSeq; seq <= target && len(missing) < maxNackBatch; seq++ {
		if _, have := s.buffered[seq]; !have {
			missing = append(missing, seq)
		}
	}
	m.emit(KindNack, []string{origin}, NackMsg{Group: g.name, Missing: missing}.Marshal())
}

// onNack retransmits the requested messages from the retention buffer and
// tells the requester this member's current promise: a NACK comes from a
// member whose order is held up on this one, and the promise it is
// missing may be the copy that was lost (tickPromise).
func (m *Machine) onNack(from string, n NackMsg) {
	g, ok := m.groups[n.Group]
	if !ok || !g.isMember(from) {
		return
	}
	sort.Slice(n.Missing, func(i, j int) bool { return n.Missing[i] < n.Missing[j] })
	for _, seq := range n.Missing {
		if d, have := g.sent[seq]; have {
			m.emit(KindData, []string{from}, d.Marshal())
		}
	}
	ack := g.promise()
	m.trace.Emit(trace.EvAckOut, ack.TS, ack.SendSeqHW, from)
	m.emit(KindAck, []string{from}, ack.Marshal())
}
