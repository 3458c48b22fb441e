package group

import (
	"sort"

	"fsnewtop/internal/trace"
)

// maybePropose starts (or restarts) a view change if this member is the
// coordinator — the least non-suspected member — for the current suspect
// set and any completed admissions. Called whenever suspicions change,
// when a state transfer completes, and from the tick retry.
func (m *Machine) maybePropose(g *groupState) {
	if g.joining {
		return // a provisional joiner never coordinates
	}
	joins := g.ackedJoiners()
	if len(g.suspects) == 0 && len(joins) == 0 {
		return
	}
	if g.coordinator() != m.cfg.Self {
		return
	}
	candidate := mergeSorted(g.candidateMembers(), joins)
	if g.change != nil && sameMembers(g.change.members, candidate) && g.change.acks != nil {
		return // already coordinating exactly this change
	}
	m.propose(g, candidate, joins)
}

// propose issues a fresh proposal epoch for the candidate membership and
// records the coordinator's own acknowledgement. joins lists the candidate
// members being admitted (not in the current view).
func (m *Machine) propose(g *groupState, candidate, joins []string) {
	g.lastEpoch++
	proposed := map[uint64][]string{}
	if prev := g.change; prev != nil && prev.acks != nil {
		proposed = prev.proposed
	}
	proposed[g.lastEpoch] = candidate
	g.change = &viewChange{
		viewID:    g.viewID + 1,
		epoch:     g.lastEpoch,
		members:   candidate,
		joins:     joins,
		acks:      make(map[string]ViewAck, len(candidate)),
		proposed:  proposed,
		startedAt: m.now,
	}
	m.trace.Emit(trace.EvViewPropose, g.change.viewID, g.change.epoch, m.cfg.Self)
	prop := ViewProp{Group: g.name, ViewID: g.change.viewID, Epoch: g.change.epoch, Members: candidate, Joins: joins}
	to := make([]string, 0, len(candidate)-1)
	for _, c := range candidate {
		if c != m.cfg.Self {
			to = append(to, c)
		}
	}
	m.emit(KindViewProp, to, prop.Marshal())
	g.change.acks[m.cfg.Self] = ViewAck{
		Group:   g.name,
		ViewID:  g.change.viewID,
		Epoch:   g.change.epoch,
		Clock:   g.clock,
		Pending: g.flushPending(candidate),
	}
	m.checkInstall(g)
}

// onViewProp handles a coordinator's proposal: adopt its exclusions,
// accept it if it beats the proposal we are currently on, and reply with
// our pending messages for the flush.
func (m *Machine) onViewProp(from string, v ViewProp) {
	g, ok := m.groups[v.Group]
	if !ok || v.ViewID != g.viewID+1 || from == m.cfg.Self {
		return
	}
	sort.Strings(v.Members)
	sort.Strings(v.Joins)
	// Only the least surviving current member may coordinate; admissions
	// (which may sort below it) never do.
	if len(v.Members) == 0 || coordinatorOf(v.Members, v.Joins) != from {
		return
	}
	selfIn := false
	for _, mem := range v.Members {
		if !g.isMember(mem) && !contains(v.Joins, mem) {
			return // may only shrink the membership or admit declared joiners
		}
		if mem == m.cfg.Self {
			selfIn = true
		}
	}
	if !selfIn {
		return
	}
	if v.Epoch > g.lastEpoch {
		g.lastEpoch = v.Epoch
	}
	// A proposal held from a coordinator this member already suspects can
	// never install: that coordinator has fail-signalled or been given up.
	// Its successor may never have seen it (it was cut off when it was
	// sent), so the successor's first proposal can tie its epoch while
	// sorting after it — and would be refused forever, the successor
	// re-sending the same epoch for the same candidate set. Any proposal
	// from the new coordinator supersedes a stale one.
	stale := g.change != nil && g.change.acks == nil && g.suspects[coordinatorOf(g.change.members, g.change.joins)]
	// Adopt the proposer's exclusions (suspicion sharing — this is what
	// propagates a false suspicion through a partitionable system).
	for _, mem := range g.members {
		if !contains(v.Members, mem) && !g.suspects[mem] {
			g.suspects[mem] = true
		}
	}
	// A re-sent proposal we already adopted is re-acknowledged (the
	// coordinator may have missed our ack); a strictly better proposal
	// replaces the current one; anything else is ignored.
	switch {
	case g.change != nil && v.Epoch == g.change.epoch && from == coordinatorOf(g.change.members, g.change.joins) && sameMembers(v.Members, g.change.members):
		// re-ack below
	case g.change == nil || stale || v.Epoch > g.change.epoch ||
		(v.Epoch == g.change.epoch && from < coordinatorOf(g.change.members, g.change.joins)):
		g.change = &viewChange{viewID: v.ViewID, epoch: v.Epoch, members: v.Members, joins: v.Joins, startedAt: m.now}
		m.trace.Emit(trace.EvViewPropose, v.ViewID, v.Epoch, from)
	default:
		return
	}
	ack := ViewAck{
		Group:    g.name,
		ViewID:   v.ViewID,
		Epoch:    v.Epoch,
		Clock:    g.clock,
		Suspects: sortedKeys(g.suspects),
		Pending:  g.flushPending(v.Members),
	}
	m.emit(KindViewAck, []string{from}, ack.Marshal())
}

// onViewAck collects acknowledgements at the coordinator and installs the
// view once every proposed member has acked this epoch.
func (m *Machine) onViewAck(from string, v ViewAck) {
	g, ok := m.groups[v.Group]
	if !ok || g.change == nil || g.change.acks == nil {
		return
	}
	c := g.change
	// Older-epoch acks for the same target view still count: epochs only
	// disambiguate proposals whose member sets changed, and membership is
	// re-validated at install time. Requiring exact epochs would livelock
	// whenever the ack round-trip exceeds the retry interval. But an ack's
	// flush holds the retained tail only of the origins its own epoch's
	// candidate excluded, so an older ack counts only when that candidate
	// excluded every origin this one does (it had no member this one
	// lacks). Otherwise the flush could miss a message the newly excluded
	// origin got to some members only, and the fresh proposal, already
	// sent to the acker, asks again; the ack's suspicions still count.
	if v.ViewID != c.viewID || v.Epoch > c.epoch || !contains(c.members, from) {
		return
	}
	if c.flushCovers(v.Epoch) {
		c.acks[from] = v
		m.trace.Emit(trace.EvViewAck, v.ViewID, v.Epoch, from)
	}
	// Reverse suspicion sharing: adopt the acker's suspicions. The
	// fail-signal broadcast is lossy, and a coordinator that missed one
	// keeps the dead member in its candidate set, waiting on an ack that
	// can never come — the ackers that did see the fail-signal are the
	// only path for that knowledge to reach it. Adoption may supersede
	// the standing proposal with a shrunken candidate set.
	for _, s := range v.Suspects {
		if s != m.cfg.Self {
			m.suspectEverywhere(s)
		}
	}
	m.checkInstall(g)
}

// flushCovers reports whether an ack of epoch carries a flush complete for
// this change: epoch is this change's own, or an earlier proposal of this
// coordinator whose candidate had no member this one lacks.
func (c *viewChange) flushCovers(epoch uint64) bool {
	if epoch == c.epoch {
		return true
	}
	prev, ok := c.proposed[epoch]
	if !ok {
		return false
	}
	for _, mem := range prev {
		if !contains(c.members, mem) {
			return false
		}
	}
	return true
}

// checkInstall fires the installation once the coordinator holds acks from
// every proposed member: it unions the reported pending sets into the
// flush, broadcasts the install, and installs locally.
func (m *Machine) checkInstall(g *groupState) {
	c := g.change
	if c == nil || c.acks == nil || len(c.acks) != len(c.members) {
		return
	}
	type key struct {
		origin string
		seq    uint64
	}
	seen := make(map[key]bool)
	var flush []DataMsg
	var floor uint64
	for _, member := range sortedKeys(c.acks) {
		if clk := c.acks[member].Clock; clk > floor {
			floor = clk
		}
		for _, d := range c.acks[member].Pending {
			k := key{d.Origin, d.SenderSeq}
			if !seen[k] {
				seen[k] = true
				flush = append(flush, d)
			}
		}
	}
	sortFlush(flush)
	install := ViewInstall{Group: g.name, ViewID: c.viewID, Epoch: c.epoch, ClockFloor: floor, Members: c.members, Joins: c.joins, Flush: flush}
	to := make([]string, 0, len(c.members)-1)
	for _, mem := range c.members {
		if mem != m.cfg.Self {
			to = append(to, mem)
		}
	}
	m.emit(KindViewInstall, to, install.Marshal())
	m.doInstall(g, install)
}

// onViewInstall applies a coordinator's installation at a member.
func (m *Machine) onViewInstall(from string, v ViewInstall) {
	g, ok := m.groups[v.Group]
	if !ok || v.ViewID != g.viewID+1 {
		return
	}
	sort.Strings(v.Members)
	sort.Strings(v.Joins)
	if len(v.Members) == 0 || coordinatorOf(v.Members, v.Joins) != from || !contains(v.Members, m.cfg.Self) {
		return
	}
	m.doInstall(g, v)
}

// doInstall delivers the flush set in timestamp order, commits the new
// membership, resets the sequencer state, and announces the view locally.
func (m *Machine) doInstall(g *groupState, v ViewInstall) {
	prevSequencer := g.sequencer()
	m.trace.Emit(trace.EvViewInstall, v.ViewID, uint64(len(v.Flush)), "")
	// Admissions enter with clean per-origin state everywhere: any stream
	// or causal bookkeeping under the same name belongs to an incarnation
	// that already left the view. The joiner purges its own name too —
	// its snapshot may carry the departed incarnation's counters, and a
	// causal send against those would never match the purged members'
	// expectations.
	for _, j := range v.Joins {
		g.purgeMember(j)
		delete(g.joiners, j)
	}
	sortFlush(v.Flush)
	// Raise the clock over the install's clock floor and every flush
	// timestamp before anything is delivered. The floor is what makes a
	// joiner's future sends sort after every message the group delivered
	// between its snapshot and this install: members froze delivery when
	// they acked the admission, so the maximum acked clock bounds every
	// delivered timestamp, and clearing it here means no timestamp minted
	// in the new view can sort under one already delivered in the old.
	// The flush raise serves the consolidated acknowledgement broadcast
	// below: it must promise timestamps above the whole flush so the new
	// view's gate can advance past it.
	if v.ClockFloor > g.clock {
		g.clock = v.ClockFloor
	}
	for _, d := range v.Flush {
		if d.TS > g.clock {
			g.clock = d.TS
		}
	}
	// Run the flush through ordinary intake — members and joiners alike.
	// Force-delivering it (the historical member path) bypasses the
	// timestamp gate, which breaks the total order two ways: a member
	// whose intake still has a gap for a live origin jumps its delivered
	// watermark over messages it could still recover by retransmission,
	// and a message multicast concurrently with the view change — after
	// its sender's flush contribution was taken — can carry a timestamp
	// at or below the flush tail, so gated and force-delivering members
	// break the tie differently. Intake keeps every delivery behind the
	// gate: duplicates drop on the per-origin watermark, gaps buffer and
	// trigger NACKs (a dead origin's gap is covered by the retained tail
	// the flush carries), and drainSym emits in (TS, Origin) order at
	// every member. The per-accept acks are suppressed for the batch; the
	// install's consolidated ack below covers it.
	m.quietAcks = true
	intake := append([]DataMsg(nil), v.Flush...)
	sort.Slice(intake, func(i, j int) bool {
		if intake[i].Origin != intake[j].Origin {
			return intake[i].Origin < intake[j].Origin
		}
		return intake[i].SenderSeq < intake[j].SenderSeq
	})
	for _, d := range intake {
		if d.Origin == m.cfg.Self || d.Service != TotalSym {
			continue
		}
		m.intakeData(g, d)
	}
	m.quietAcks = false
	// Settle the pending set: entries at or below the delivered watermark
	// would be re-offered to a later flush and resurrect as duplicates if
	// a future admission of the same origin purged the watermark.
	g.pendingSym.filter(func(d *DataMsg) bool { return d.SenderSeq > g.stream(d.Origin).symDelivered })

	g.viewID = v.ViewID
	g.setMembers(v.Members)
	if v.Epoch > g.lastEpoch {
		g.lastEpoch = v.Epoch
	}
	g.change = nil
	for _, s := range sortedKeys(g.suspects) {
		if contains(v.Members, s) {
			delete(g.suspects, s) // survived: the suspicion was withdrawn by the change
		} else {
			delete(g.suspects, s) // removed: no longer a member to suspect
		}
	}

	if seq := g.sequencer(); seq != prevSequencer {
		m.trace.Emit(trace.EvSeqHandoff, v.ViewID, 0, seq)
	}

	// Asymmetric order restarts under the new sequencer's epoch.
	g.asymByGlobal = make(map[uint64]asymKey)
	g.nextAsymDeliver = 0
	g.nextGlobal = 0
	if g.sequencer() == m.cfg.Self {
		m.resequence(g)
	}

	if g.joining && contains(v.Members, m.cfg.Self) {
		// This install is our admission: the provisional snapshot state
		// becomes full membership.
		g.joining = false
		delete(m.joining, g.name)
	}
	// Every member announces its observed clock the moment the view
	// installs. The flush was re-offered to intake above and delivery
	// gates on the minimum effective clock over the new membership, so
	// these acks are what advance that minimum past the flush tail; the
	// promise is valid (the clock was raised over the flush, and future
	// timestamps exceed it) and becomes effective at each peer once it
	// holds our data through the send watermark. For a fresh joiner this
	// also seeds the stream its peers initialised at zero.
	m.announce(g)

	// Causal precedence may be satisfiable now that departed members'
	// entries are ignored; symmetric pending likewise re-evaluates against
	// the shrunken membership.
	m.drainCausal(g)
	m.drainSym(g)

	m.emitLocal(KindView, ViewNote{Group: g.name, ViewID: g.viewID, Members: g.members}.Marshal())
}

// tickViewChange retries stalled membership work: coordinators re-propose
// with a fresh epoch, and pending suspicions or completed admissions with
// no change in flight get a proposal attempt.
func (m *Machine) tickViewChange(g *groupState) {
	if g.joining {
		return
	}
	joins := g.ackedJoiners()
	// A standing change is driven to resolution even when the conditions
	// that started it have evaporated (e.g. the joiner behind an admission
	// proposal died and expired): delivery freezes while a join-bearing
	// proposal is pending, so abandoning one silently would stall the group.
	// Re-proposing with the shrunken candidate set supersedes it everywhere.
	if len(g.suspects) == 0 && len(joins) == 0 && g.change == nil {
		return
	}
	if g.change == nil {
		m.maybePropose(g)
		return
	}
	if m.now.Sub(g.change.startedAt) < viewRetryAfter {
		return
	}
	if g.coordinator() != m.cfg.Self {
		return
	}
	candidate := mergeSorted(g.candidateMembers(), joins)
	c := g.change
	if c.acks != nil && sameMembers(c.members, candidate) {
		// Same candidate set: re-send the standing proposal (messages may
		// have been lost or slow) instead of minting a fresh epoch, which
		// would invalidate acks already in flight.
		c.startedAt = m.now
		prop := ViewProp{Group: g.name, ViewID: c.viewID, Epoch: c.epoch, Members: c.members, Joins: c.joins}
		to := make([]string, 0, len(c.members)-1)
		for _, mem := range c.members {
			if mem != m.cfg.Self {
				to = append(to, mem)
			}
		}
		m.emit(KindViewProp, to, prop.Marshal())
		return
	}
	m.propose(g, candidate, joins)
}

// sharesGroupWith reports whether peer is a member of any group we are in.
// Pong replies are gated on it, so a member expelled from all common
// groups stops hearing from us and reconfigures on its side.
func (m *Machine) sharesGroupWith(peer string) bool {
	for _, name := range sortedKeys(m.groups) {
		g := m.groups[name]
		if !g.joining && g.isMember(peer) {
			return true
		}
	}
	return false
}

// mergeSorted unions two string slices into a fresh sorted slice.
func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	out = append(out, a...)
	for _, s := range b {
		if !contains(out, s) {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortFlush orders a flush set by (TS, Origin, SenderSeq).
func sortFlush(flush []DataMsg) {
	sort.Slice(flush, func(i, j int) bool {
		if flush[i].TS != flush[j].TS {
			return flush[i].TS < flush[j].TS
		}
		if flush[i].Origin != flush[j].Origin {
			return flush[i].Origin < flush[j].Origin
		}
		return flush[i].SenderSeq < flush[j].SenderSeq
	})
}
