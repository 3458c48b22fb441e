package group

import "fsnewtop/internal/trace"

// onAck records a symmetric-order logical acknowledgement and re-checks
// deliverability.
func (m *Machine) onAck(from string, a AckMsg) {
	g, ok := m.groups[a.Group]
	if !ok || !g.isMember(from) || from == m.cfg.Self {
		return
	}
	s := g.stream(from)
	if a.TS > s.ackTS {
		s.ackTS, s.ackHW = a.TS, a.SendSeqHW
	}
	m.trace.Emit(trace.EvAckIn, a.TS, a.SendSeqHW, from)
	m.drainSym(g)
}

// ackAccept is the logical acknowledgement of one accepted message, under
// the rule that a promise is sent once: the acknowledgement leaves only
// when it differs from the one this member last broadcast. A repeat would
// be dropped by every receiver (onAck ignores TS <= ackTS), so eliding it
// changes no receiver's state; the first acknowledgement for a new clock
// value or send watermark still leaves in the accept's own step.
func (m *Machine) ackAccept(g *groupState) {
	if g.promised.ts == g.clock && g.promised.hw == g.outSeq {
		m.acks.elided.Add(1)
		m.trace.Emit(trace.EvAckElided, g.clock, g.outSeq, "")
		return
	}
	m.acks.sent.Add(1)
	m.announce(g)
}

// announce broadcasts this member's current promise — its future messages
// carry timestamps above the clock, usable by a peer that holds its data
// through the send watermark — and records it as the standing one.
func (m *Machine) announce(g *groupState) {
	ack := g.promise()
	g.promised.ts, g.promised.hw = ack.TS, ack.SendSeqHW
	// An ack left: whatever tickPromise is timing starts over.
	g.stalled.since = m.now
	m.trace.Emit(trace.EvAckOut, ack.TS, ack.SendSeqHW, "")
	m.emit(KindAck, g.others(m.cfg.Self), ack.Marshal())
}

// tickPromise repairs what a promise sent once can lose. When the head of
// pendingSym has stayed blocked on the same laggard's clock for
// resendAfter and no acknowledgement left meanwhile, one of two copies
// went missing, and this member cannot tell which: its own promise or
// data on the way to the laggard (the laggard then learns the send
// watermark from the re-announcement and NACKs the gap), or the laggard's
// promise on the way here — lost, or dropped because this member had not
// yet installed the view admitting the laggard. So it re-announces its
// own promise and asks the laggard for its; onNack answers with the
// laggard's current one. Time comes from ordered ticks, so both replicas
// of a pair fire in the same step; a group that keeps delivering never
// fires.
func (m *Machine) tickPromise(g *groupState) {
	st := &g.stalled
	if g.joining || len(g.pendingSym) == 0 {
		st.origin, st.seq = "", 0
		return
	}
	head := g.pendingSym[0]
	laggard, minEff := g.minEffMember(m.cfg.Self)
	if head.TS <= minEff {
		// Held by the admission freeze, not by a missing promise.
		st.origin, st.seq = "", 0
		return
	}
	if st.origin != head.Origin || st.seq != head.SenderSeq {
		st.origin, st.seq, st.since = head.Origin, head.SenderSeq, m.now
		return
	}
	if m.now.Sub(st.since) < resendAfter {
		return
	}
	m.acks.resent.Add(1)
	m.trace.Emit(trace.EvAckResend, g.clock, g.outSeq, g.name+":"+laggard)
	m.announce(g)
	m.nack(g, laggard)
}

// drainSym delivers every pending symmetric-order message whose timestamp
// is covered by all members' observed clocks, in (TS, Origin) order. The
// delivery condition is the paper's "ordered only after logically
// acknowledged by all members": a message's position is final once no
// member can produce (or still have in flight) a message with a smaller
// timestamp.
func (m *Machine) drainSym(g *groupState) {
	// Admission freeze: from the moment this member acknowledges a
	// proposal that admits joiners until the view installs, delivery
	// holds. The acknowledgement reported our clock, and the install's
	// clock floor — the maximum across all acks — is what guarantees a
	// joiner's future timestamps sort after everything delivered in the
	// old view. Delivering past our acked clock here would break that
	// bound: the joiner could mint a timestamp under a message we already
	// delivered, and the logs would diverge. Intake, acks and NACK repair
	// all continue; only delivery waits, and only for the admission
	// round-trip.
	if g.change != nil && len(g.change.joins) > 0 {
		return
	}
	for len(g.pendingSym) > 0 {
		head := g.pendingSym[0]
		if laggard, minEff := g.minEffMember(m.cfg.Self); head.TS > minEff {
			// Emit the stall frontier once per change per group, not once
			// per re-evaluation: the interesting trace fact is what the
			// head is waiting for, and on whom.
			if m.trace != nil && (g.lastBlocked.headTS != head.TS ||
				g.lastBlocked.minEff != minEff || g.lastBlocked.laggard != laggard) {
				g.lastBlocked.headTS, g.lastBlocked.minEff, g.lastBlocked.laggard = head.TS, minEff, laggard
				m.trace.Emit(trace.EvRoundBlocked, head.TS, minEff, g.name+":"+laggard)
			}
			return
		}
		g.pendingSym = g.pendingSym[1:]
		s := g.stream(head.Origin)
		if head.SenderSeq <= s.symDelivered {
			continue // already delivered via a view-change flush
		}
		s.symDelivered = head.SenderSeq
		s.retain(head)
		m.trace.Emit(trace.EvRoundClose, head.TS, head.SenderSeq, head.Origin)
		m.deliver(g, head.Origin, TotalSym, head.Payload)
	}
}
