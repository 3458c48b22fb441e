package failsignal

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
	"fsnewtop/internal/trace"
	"fsnewtop/transport"
)

// Role distinguishes the two FSOs of a pair. The leader decides input
// order; the follower checks that everything it receives is eventually
// ordered by the leader.
type Role int

const (
	// Leader is the FSO fixed as the order decider.
	Leader Role = iota + 1
	// Follower is the FSO that accepts the leader's order.
	Follower
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Leader:
		return "leader"
	case Follower:
		return "follower"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// MsgRelay carries a follower-received input to the leader after timeout
// t1 (the follower "dispatches the message to the leader by calling the
// receiveDouble() of the leader", Appendix A). t1 is 0 here: the follower
// relays an input the moment it pools it.
const MsgRelay = "fs.relay"

// The deadline constants of Section 2.2: κ and σ weigh the processing
// time π and the sign-and-forward time τ in the compare deadline, and the
// follower's order deadline t2 is t2PerDelta·δ.
const (
	kappa      = 2
	sigma      = 2
	t2PerDelta = 2
)

// orderedInput is one entry of the Delivered Message Queue (DMQ): an input
// in its leader-decided position, stamped with its submission time so that
// the Compare deadline term κ·π can be computed (π is "the time elapsed
// since the corresponding input was submitted for processing",
// Section 2.2).
type orderedInput struct {
	in        sm.Input
	submitted time.Time
}

// ReplicaConfig configures one half of an FS pair. Most users should build
// pairs with NewPair rather than assembling replicas directly.
type ReplicaConfig struct {
	// Name is the logical name of the FS process this replica belongs to.
	Name string
	// Role selects leader or follower behaviour.
	Role Role
	// Self and Peer are the network addresses of this replica and its
	// counterpart. The Self↔Peer link is the synchronous LAN of A2.
	Self, Peer transport.Addr
	// Net is the network carrying both the sync link and external traffic.
	Net transport.Transport
	// Clock drives all timeouts.
	Clock clock.Clock
	// Dir resolves logical destinations and verifies FS sources.
	Dir *Directory
	// Verifier checks all inbound signatures.
	Verifier sig.Verifier
	// Signer is this node's Compare identity.
	Signer sig.Signer
	// PeerFailEnv is the fail-signal envelope pre-signed by the peer's
	// Compare at start-up (Section 2.1): counter-signing it produces this
	// FS process's unique double-signed fail-signal.
	PeerFailEnv sig.Envelope
	// Machine is the wrapped deterministic state machine (R1).
	Machine sm.Machine
	// Delta is δ, the sync-link delivery bound (A2). Required. Every
	// deadline derives from it: compare 2δ+κπ+στ at the leader and
	// δ+κπ+στ at the follower, and t2 = 2δ.
	Delta time.Duration
	// TickInterval, when non-zero, paces the leader's ordered tick inputs
	// (so the machine can run timers deterministically), and bounds how
	// long the follower lets its leader's fwd stream stay silent before
	// fail-signalling (see silenceBound). Both halves need the same value.
	TickInterval time.Duration
	// LocalName, when non-empty, is the logical (plain) endpoint that
	// receives outputs addressed to sm.LocalDelivery.
	LocalName string
	// Watchers are logical names additionally notified when this replica
	// emits a fail-signal ("all entities that are expecting a response").
	Watchers []string
	// OnFailSignal, if set, is invoked once with the reason when this
	// replica starts fail-signalling. Test hook.
	OnFailSignal func(reason string)
	// Trace, if non-nil, is this FSO's protocol event ring. The replica,
	// its watchdog, and (when the wrapped machine implements
	// trace.Traceable) the machine itself all emit into it.
	Trace *trace.Ring
}

// ReplicaStats counts observable replica events; retrieve with Stats.
type ReplicaStats struct {
	Ordered     uint64 // inputs accepted into the DMQ
	Ticks       uint64 // of Ordered, the leader's ticks (ordered or accepted)
	Duplicates  uint64 // inputs suppressed by deduplication
	Rejected    uint64 // inputs dropped for failed authentication or decode
	Outputs     uint64 // machine outputs produced
	Matched     uint64 // outputs that compared equal and were dispatched
	Relayed     uint64 // follower inputs relayed to the leader
	FailSignals uint64 // fail-signal messages emitted
	StallRearms uint64 // silence windows restarted after a host stall (follower)
}

// icmpEntry is an Internal Candidate Message Pool entry: one locally
// produced output awaiting comparison. Its compare deadline lives on the
// replica's watchdog heap.
type icmpEntry struct {
	digest [32]byte
	dests  []string
	// full retains the output bytes the signed digest body pins: the
	// peer's candidate carries only the digest, so dispatch must supply
	// the bytes from the local copy.
	full []byte
	w    *watch
}

// ecmpEntry is an External Candidate Message Pool entry: a peer candidate
// that arrived before the local machine produced the matching output. The
// content digest computed for signature verification rides along so the
// eventual comparison does not hash the body again.
type ecmpEntry struct {
	env    sig.Envelope
	digest [32]byte
}

// irmpEntry is an Internal Received Message Pool entry (follower only):
// one externally received input not yet ordered by the leader. p is the
// verified decode of raw (it aliases raw), decoded straight into the entry
// and kept so the leader's forward of the identical bytes costs a compare,
// not a second decode, hash and verification. w is its t2 deadline, armed
// when it is relayed.
type irmpEntry struct {
	raw []byte
	p   newPayload
	w   *watch
}

// Replica is one half of a fail-signal process: the wrapped state-machine
// replica plus its FSO (Order and Compare roles). It runs on one
// clock.Loop (see pass); transport handlers only order, pool and match
// under mu and kick the loop.
type Replica struct {
	cfg  ReplicaConfig
	loop clock.Loop

	// Owned by the loop's passes, never touched elsewhere.
	steps  []orderedInput // DMQ inputs taken over by the loop
	next   int            // the next of steps to run
	outSeq uint64
	fired  *watch // handled on the last pass, released on this one

	mu sync.Mutex
	// dmq is the Delivered Message Queue: ordered inputs the loop has not
	// taken yet. It is unbounded on purpose: the Order role must never
	// block a network handler (that would stall the link and violate the δ
	// bound the Compare deadlines are computed from).
	dmq      []orderedInput
	wd       watchdog  // fail-signal deadlines, popped by the loop
	nextTick time.Time // leader with TickInterval: when the next tick is due
	// maxPass is the longest pass the loop has taken to step one input and
	// compare its outputs, timed from the pass's start (passStart, zero
	// between such passes) to the start of the next.
	maxPass   time.Duration
	passStart time.Time
	// gate remembers what this replica has ordered. The leader marks in
	// order-index order and the follower marks from the fwd stream in the
	// same order, so the two windows evolve identically: a correct leader
	// never forwards what its follower's gate calls known.
	gate       gate
	ordIdx     uint64 // leader: next order index to assign
	nextFwdIdx uint64 // follower: next expected order index
	// icmpOrder lists outstanding ICMP sequences in insertion (= output)
	// order; heads whose entry has since matched are discarded lazily, so
	// the oldest outstanding sequence — the skip check's only need — is
	// amortized O(1) instead of a map scan per inbound candidate.
	icmpOrder []uint64
	// cmpProgress counts the peer Compare stream's forward progress: the
	// number of distinct, new output sequences whose single-signed
	// candidate has arrived. ordProgress (follower only) counts accepted
	// non-tick fwd inputs: heartbeat ticks are content-free and must not
	// defer the t2 deadline, or a leader that drops a relayed input while
	// ticking along would never be detected. Deadline watches snapshot
	// these at arm time; see watchFired.
	cmpProgress uint64
	lastPeerSeq uint64 // highest peer candidate sequence seen
	ordProgress uint64
	lastTick    time.Time
	lastFwd     time.Time // follower: when the latest fwd, tick or input, was accepted
	icmp        map[uint64]icmpEntry
	ecmp        map[uint64]ecmpEntry
	irmp        map[inputKey]*irmpEntry
	failed      bool
	failDbl     sig.Double // cached double-signed fail-signal, set on failure
	closed      bool
	stats       ReplicaStats
}

// NewReplica constructs and starts a replica: it registers the network
// handler and starts the replica's loop.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Delta <= 0 {
		return nil, fmt.Errorf("failsignal: replica %q: Delta must be positive", cfg.Name)
	}
	if cfg.Machine == nil {
		return nil, fmt.Errorf("failsignal: replica %q: Machine is required", cfg.Name)
	}
	if cfg.Role != Leader && cfg.Role != Follower {
		return nil, fmt.Errorf("failsignal: replica %q: invalid role %v", cfg.Name, cfg.Role)
	}
	r := &Replica{
		cfg:  cfg,
		wd:   watchdog{clk: cfg.Clock, ring: cfg.Trace},
		gate: newGate(),
		icmp: make(map[uint64]icmpEntry),
		ecmp: make(map[uint64]ecmpEntry),
		irmp: make(map[inputKey]*irmpEntry),
	}
	if cfg.TickInterval > 0 {
		if cfg.Role == Leader {
			r.nextTick = cfg.Clock.Now().Add(cfg.TickInterval)
		} else {
			r.lastFwd = cfg.Clock.Now()
			r.wd.arm(watchSilence, inputKey{}, 0, r.silenceBound(), 0)
		}
	}
	if t, ok := cfg.Machine.(trace.Traceable); ok && cfg.Trace != nil {
		t.SetTrace(cfg.Trace)
	}
	r.loop = clock.NewLoop(cfg.Clock, r.pass)
	cfg.Net.Register(cfg.Self, r.handle)
	return r, nil
}

// pass is one step of the replica's loop, the target thread of the
// paper. The loop owns the DMQ, the deadline heap and (leader) the tick.
// Each pass orders a tick if one is due, then handles one due deadline,
// else steps the machine once and hands its outputs to Compare, so a
// backlog delays a due deadline by at most one Step. With nothing ready it
// aims the loop at the earliest deadline or tick. A replica that has
// failed or closed parks for good: its backlog is dropped, not stepped.
func (r *Replica) pass(now time.Time) time.Time {
	r.mu.Lock()
	if r.failed || r.closed {
		r.mu.Unlock()
		return time.Time{}
	}
	if r.fired != nil {
		r.wd.release(r.fired)
		r.fired = nil
	}
	if !r.passStart.IsZero() {
		r.maxPass = max(r.maxPass, now.Sub(r.passStart))
		r.passStart = time.Time{}
	}
	r.tickLocked(now)
	if w := r.wd.popDue(now.UnixNano()); w != nil {
		r.mu.Unlock()
		r.watchFired(w)
		r.fired = w
		return now
	}
	if r.next == len(r.steps) {
		clear(r.steps)
		r.steps, r.dmq, r.next = r.dmq, r.steps[:0], 0
	}
	if r.next < len(r.steps) {
		r.passStart = now
		r.mu.Unlock()
		oi := r.steps[r.next]
		r.next++
		outs := r.cfg.Machine.Step(oi.in)
		pi := r.cfg.Clock.Since(oi.submitted)
		for _, out := range outs {
			r.outSeq++
			r.compareOutput(r.outSeq, out, pi)
		}
		return now
	}
	at := r.wd.next()
	if tick := r.nextTick.UnixNano(); !r.nextTick.IsZero() && (at == 0 || tick < at) {
		at = tick
	}
	r.mu.Unlock()
	if at == 0 {
		return time.Time{}
	}
	return time.Unix(0, at)
}

// submitLocked appends an ordered input to the DMQ. Caller holds r.mu.
func (r *Replica) submitLocked(in sm.Input, submitted time.Time) {
	r.dmq = append(r.dmq, orderedInput{in: in, submitted: submitted})
	r.loop.Kick()
}

// Stats returns a snapshot of the replica's counters.
func (r *Replica) Stats() ReplicaStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Failed reports whether this replica has started fail-signalling.
func (r *Replica) Failed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

// AddWatcher registers one more logical name to be notified when this
// replica fail-signals. Deployments with membership churn need it: a
// member admitted after this pair started must still learn of its
// failure. If the replica has already failed, the new watcher receives
// the fail-signal at once — registering late must not mean missing the
// notification registration exists for.
func (r *Replica) AddWatcher(name string) {
	if name == "" {
		return
	}
	r.mu.Lock()
	for _, w := range r.cfg.Watchers {
		if w == name {
			r.mu.Unlock()
			return
		}
	}
	r.cfg.Watchers = append(append([]string(nil), r.cfg.Watchers...), name)
	failed := r.failed && len(r.failDbl.SecondSig) > 0
	dbl := r.failDbl
	if failed {
		r.stats.FailSignals++
	}
	r.mu.Unlock()
	if failed {
		r.sendToDest(name, encodeFSPayload(dbl))
	}
}

// InjectFailSignal forces the Compare thread into its failure mode, as a
// node fault could (failure mode fs2: fail-signals at arbitrary instants).
func (r *Replica) InjectFailSignal() { r.failSignal("injected (fs2)") }

// Crash simulates a silent node crash: the replica stops processing and
// emitting, while its address keeps silently absorbing traffic (a dead
// node, not a vanished one). Its peer detects the silence via comparison
// timeouts and fail-signals on the pair's behalf.
func (r *Replica) Crash() {
	r.cfg.Net.Register(r.cfg.Self, func(transport.Message) {})
	r.shutdown()
}

// Close stops the replica's loop (see clock.Loop's Stop) and deregisters
// the replica.
func (r *Replica) Close() {
	r.cfg.Net.Deregister(r.cfg.Self)
	r.shutdown()
	r.loop.Stop()
}

func (r *Replica) shutdown() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.closed = true
		r.dropPoolsLocked()
		r.loop.Kick() // the pass parks for good and the loop drops its timer
	}
}

// dropPoolsLocked disarms every deadline and empties the pools and the
// DMQ: a replica that has failed or closed compares and orders nothing
// more. It returns the destinations of the outputs still awaiting
// comparison. Caller holds r.mu.
func (r *Replica) dropPoolsLocked() map[string]bool {
	dests := make(map[string]bool)
	for _, e := range r.icmp {
		for _, d := range e.dests {
			dests[d] = true
		}
	}
	for _, w := range r.wd.h { // every deadline at once, untraced
		r.wd.release(w)
	}
	r.wd.h = r.wd.h[:0]
	r.icmp = map[uint64]icmpEntry{}
	r.icmpOrder = nil
	r.irmp = map[inputKey]*irmpEntry{}
	r.dmq = nil
	return dests
}

// handle dispatches inbound network messages. It runs on netsim link
// goroutines and must not block.
func (r *Replica) handle(msg transport.Message) {
	switch msg.Kind {
	case MsgNew, MsgOut:
		r.onNew(msg)
	case MsgRelay:
		if r.cfg.Role == Leader {
			r.onNew(msg)
		}
	case MsgFwd:
		if r.cfg.Role == Follower {
			r.onFwd(msg)
		}
	case MsgSingle:
		r.onSingle(msg)
	}
}

// verifyPayload authenticates a decoded payload according to its tag.
func (r *Replica) verifyPayload(p *newPayload) error {
	switch p.tag {
	case tagClient:
		if p.client.Client != string(p.env.Signer) {
			return fmt.Errorf("failsignal: client %q signed by %q", p.client.Client, p.env.Signer)
		}
		return p.env.Verify(r.cfg.Verifier)
	case tagFS, tagFSD:
		return r.cfg.Dir.VerifyFromFS(p.body.Source, p.dbl, r.cfg.Verifier)
	default:
		return fmt.Errorf("failsignal: unverifiable tag %d", p.tag)
	}
}

// onNew handles an external input (receiveNew), including inputs the
// leader receives back from its follower as relays after t1. Identity
// comes before authenticity: a copy of something this replica already
// holds is dropped on its key alone, and only a copy that would be
// admitted pays for decoding and verification.
func (r *Replica) onNew(msg transport.Message) {
	if r.replyIfFailed(msg.From) {
		return
	}
	k, ok := peekKey(msg.Payload)
	if !ok {
		r.countRejected()
		return
	}
	r.mu.Lock()
	dup := r.dupLocked(k)
	r.mu.Unlock()
	if dup {
		return
	}
	if r.cfg.Role == Leader {
		var p newPayload
		if r.admit(msg.Payload, &p) {
			r.leaderAccept(k, msg.Payload, &p)
		}
		return
	}
	e := &irmpEntry{raw: msg.Payload}
	if r.admit(msg.Payload, &e.p) {
		r.followerAccept(k, e)
	}
}

// admit decodes raw into p and verifies it, counting a copy that fails
// either as rejected.
func (r *Replica) admit(raw []byte, p *newPayload) bool {
	err := p.decode(raw)
	if err == nil {
		err = r.verifyPayload(p)
	}
	if err != nil {
		r.countRejected()
		return false
	}
	return true
}

// dupLocked reports whether this replica already holds k — ordered, or
// (follower) pooled in the IRMP — and counts the copy as a duplicate if
// so. Caller holds r.mu.
func (r *Replica) dupLocked(k wireKey) bool {
	if !r.gate.known(k) {
		if _, pending := r.irmp[inputKey{k.kind, string(k.source), k.seq}]; !pending {
			return false
		}
	}
	r.stats.Duplicates++
	// Emitted under the lock: ring order must equal protocol order, or a
	// post-mortem timeline shows inversions that never happened.
	traceKey(r.cfg.Trace, trace.EvOrderDup, 0, 0, k)
	return true
}

// leaderAccept orders a verified input: mark it in the gate, forward to
// the follower, and submit to the local DMQ. The forward and the local
// submit happen under one critical section so the two replicas observe the
// same total order. The gate is asked again because another copy may have
// been verified and ordered while this one was being checked.
func (r *Replica) leaderAccept(k wireKey, raw []byte, p *newPayload) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed || r.closed || r.dupLocked(k) {
		return
	}
	r.gate.mark(k)
	idx := r.ordIdx
	r.ordIdx++
	r.stats.Ordered++
	fp := fwdPayload{Index: idx, Raw: raw}
	_ = r.cfg.Net.Send(r.cfg.Self, r.cfg.Peer, MsgFwd, fp.marshal())
	r.submitLocked(p.toInput(r.cfg.LocalName), r.cfg.Clock.Now())
	traceKey(r.cfg.Trace, trace.EvOrder, idx, 0, k)
}

// followerAccept records e, a verified, directly received input, in the IRMP,
// relays it to the leader (t1 = 0) and arms its t2 deadline, unless the
// leader has ordered it (or another copy was pooled) in the meantime. The
// relay is sent in the critical section that pools the input, as
// leaderAccept sends its fwd, so relays leave in the order inputs were
// pooled: the leader merges the direct and relayed streams, and per-stream
// FIFO is what orders a client's inputs in submission order (e.g. a group
// join before the multicasts that follow it). The gate is not marked here:
// only the leader's order admits an input.
func (r *Replica) followerAccept(k wireKey, e *irmpEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed || r.closed || r.dupLocked(k) {
		return
	}
	key := k.key()
	e.w = r.wd.arm(watchOrder, key, 0, t2PerDelta*r.cfg.Delta, r.ordProgress)
	r.irmp[key] = e
	r.stats.Relayed++
	traceKey(r.cfg.Trace, trace.EvRelaySent, 0, 0, key)
	_ = r.cfg.Net.Send(r.cfg.Self, r.cfg.Peer, MsgRelay, e.raw)
	if e.w.pos == 0 {
		r.loop.Kick() // the earliest deadline: the loop must aim at it
	}
}

// onFwd handles a leader-ordered input arriving at the follower
// (receiveDouble). The follower decodes and re-verifies the input — by A5 a
// faulty leader cannot forge client or FS signatures — unless the forwarded
// bytes are the very bytes it verified itself on direct receipt and still
// holds in the IRMP, in which case that decode stands. It then checks
// order-index continuity, admits the input to its gate exactly as the
// leader did, cancels any pending IRMP escalation, and submits the input.
func (r *Replica) onFwd(msg transport.Message) {
	if r.replyIfFailed(msg.From) {
		return
	}
	if msg.From != r.cfg.Peer {
		r.countRejected()
		return
	}
	fp, err := unmarshalFwdPayload(msg.Payload)
	if err != nil {
		r.failSignal(fmt.Sprintf("undecodable fwd from leader: %v", err))
		return
	}
	k, ok := peekKey(fp.Raw)
	if !ok {
		// Only a tick carries no identity.
		var p newPayload
		switch err := p.decode(fp.Raw); {
		case err != nil:
			r.failSignal(fmt.Sprintf("undecodable ordered input from leader: %v", err))
		case p.tag != tagTick:
			r.failSignal("leader forwarded input with no identity")
		default:
			r.acceptTick(fp, &p)
		}
		return
	}
	key := k.key()

	// A leader that substitutes other bytes under a pending key gets no
	// credit for the copy this node verified: only identical bytes do.
	r.mu.Lock()
	held := r.irmp[key] // raw and p are never written after the entry is pooled
	r.mu.Unlock()
	var (
		p     *newPayload
		fresh newPayload
	)
	if held != nil && bytes.Equal(held.raw, fp.Raw) {
		p = &held.p
	} else {
		p = &fresh
		if err = p.decode(fp.Raw); err != nil {
			r.failSignal(fmt.Sprintf("undecodable ordered input from leader: %v", err))
			return
		}
		if err := r.verifyPayload(p); err != nil {
			r.failSignal(fmt.Sprintf("leader forwarded unauthenticated input: %v", err))
			return
		}
	}

	r.mu.Lock()
	if r.failed || r.closed {
		r.mu.Unlock()
		return
	}
	if fp.Index != r.nextFwdIdx {
		r.mu.Unlock()
		r.failSignal(fmt.Sprintf("order gap: leader index %d, expected %d", fp.Index, r.nextFwdIdx))
		return
	}
	r.nextFwdIdx++
	r.ordProgress++
	r.lastFwd = r.cfg.Clock.Now()
	if r.gate.known(k) {
		// The leader ordered the same input twice, or one a whole window
		// behind its source: this gate mirrors the leader's, so a correct
		// leader would have dropped it.
		r.mu.Unlock()
		r.failSignal(fmt.Sprintf("leader ordered duplicate input %s", key))
		return
	}
	r.gate.mark(k)
	if e, pending := r.irmp[key]; pending {
		r.wd.cancel(e.w)
		delete(r.irmp, key)
	}
	r.stats.Ordered++
	r.submitLocked(p.toInput(r.cfg.LocalName), r.lastFwd)
	traceKey(r.cfg.Trace, trace.EvOrder, fp.Index, 0, key)
	r.mu.Unlock()
}

// acceptTick validates and submits a leader-generated tick. Ticks carry no
// external signature; the follower enforces index continuity and
// monotonicity, the only checks available for leader-local events.
func (r *Replica) acceptTick(fp fwdPayload, p *newPayload) {
	r.mu.Lock()
	if r.failed || r.closed {
		r.mu.Unlock()
		return
	}
	if fp.Index != r.nextFwdIdx {
		r.mu.Unlock()
		r.failSignal(fmt.Sprintf("order gap at tick: leader index %d, expected %d", fp.Index, r.nextFwdIdx))
		return
	}
	if p.tick.Before(r.lastTick) {
		r.mu.Unlock()
		r.failSignal("leader tick went backwards")
		return
	}
	r.nextFwdIdx++
	r.lastTick = p.tick
	r.lastFwd = r.cfg.Clock.Now()
	r.stats.Ordered++
	r.stats.Ticks++
	r.submitLocked(p.toInput(r.cfg.LocalName), r.lastFwd)
	r.mu.Unlock()
}

// tickLocked (leader with TickInterval) orders a tick input into the total
// input order once one is due. It runs on the loop, which steps the tick
// in the same pass. Caller holds r.mu.
func (r *Replica) tickLocked(now time.Time) {
	if r.nextTick.IsZero() || now.Before(r.nextTick) {
		return
	}
	r.nextTick = now.Add(r.cfg.TickInterval)
	idx := r.ordIdx
	r.ordIdx++
	r.stats.Ordered++
	r.stats.Ticks++
	fp := fwdPayload{Index: idx, Raw: encodeTickPayload(now)}
	_ = r.cfg.Net.Send(r.cfg.Self, r.cfg.Peer, MsgFwd, fp.marshal())
	r.dmq = append(r.dmq, orderedInput{in: sm.Tick(now), submitted: now})
}

// compareDeadline computes the Compare wait for one output: 2δ + κ·π + σ·τ
// at the leader, δ + κ·π + σ·τ at the follower (Section 2.2; the follower
// always lags the leader by at most δ, hence one fewer δ term).
func (r *Replica) compareDeadline(pi, tau time.Duration) time.Duration {
	base := r.cfg.Delta
	if r.cfg.Role == Leader {
		base = 2 * r.cfg.Delta
	}
	return base + kappa*pi + sigma*tau
}

// compareOutput implements the Compare send side for one output: hash it,
// sign the digest body, forward that to the remote Compare, and either
// match it against an already-received peer candidate or pool it in the
// ICMP under a deadline. The signed body carries sig.Digest(output) and
// never the output, so the sync link and the peer's verification handle a
// fixed 32 bytes whatever the payload size; digests are equal iff the
// outputs are, so the comparison is exactly as discriminating. The
// candidate is sent under r.mu after the failed/closed check, so a replica
// that has fail-signalled or crashed never hands its peer another one.
func (r *Replica) compareOutput(seq uint64, out sm.Output, pi time.Duration) {
	full := sm.MarshalOutput(out)
	d := sig.Digest(full)
	body := OutputBody{Source: r.cfg.Name, Seq: seq, DigestOnly: true, Output: d[:]}
	bb := body.Marshal()
	digest := sig.Digest(bb)

	signStart := r.cfg.Clock.Now()
	env, err := sig.SignEnvelope(r.cfg.Signer, bb)
	if err != nil {
		r.failSignal(fmt.Sprintf("cannot sign output %d: %v", seq, err))
		return
	}
	single := env.Marshal()

	r.mu.Lock()
	if r.failed || r.closed {
		r.mu.Unlock()
		return
	}
	_ = r.cfg.Net.Send(r.cfg.Self, r.cfg.Peer, MsgSingle, single)
	deadline := r.compareDeadline(pi, r.cfg.Clock.Since(signStart))
	r.stats.Outputs++
	if peer, ok := r.ecmp[seq]; ok {
		delete(r.ecmp, seq)
		match := peer.digest == digest
		if match {
			r.stats.Matched++
			r.cfg.Trace.Emit(trace.EvCompareMatch, seq, 0, "")
		}
		r.mu.Unlock()
		if !match {
			r.failSignal(fmt.Sprintf("output %d content mismatch", seq))
			return
		}
		r.dispatchMatched(peer.env, out.To, full)
		return
	}
	r.icmp[seq] = icmpEntry{
		digest: digest,
		dests:  out.To,
		full:   full,
		w:      r.wd.arm(watchCompare, inputKey{}, seq, deadline, r.cmpProgress),
	}
	r.icmpOrder = append(r.icmpOrder, seq)
	r.cfg.Trace.Emit(trace.EvCompareArm, seq, uint64(deadline), "")
	r.mu.Unlock()
}

// watchFired handles an expired deadline on the loop. It re-validates the
// deadline under the replica lock before signalling, since the watched
// entry may have been satisfied since the loop popped it. The rule is
// progress-aware: an expired deadline whose peer demonstrably kept
// working — new in-order compare candidates kept arriving, or the
// leader's fwd stream kept advancing — is re-armed for a fresh window
// instead of declaring the pair failed. On a real network, transport
// backpressure can delay the pair's "synchronous" streams far past any
// fixed bound while both nodes are healthy and output-identical; the
// paper's A2/A3/A4 hold on its dedicated LAN but not on a shared,
// congested wire. A dead peer makes no progress, so crash detection still
// fires after one window; divergence stays promptly detected by the
// compare stream's in-order skip check (see onSingle); and a peer that
// keeps doing valid new work while withholding one input is caught within
// (1+maxOrderGrants)·t2, since order grants are capped and each re-sends
// the relay.
func (r *Replica) watchFired(w *watch) {
	switch w.kind {
	case watchCompare:
		r.mu.Lock()
		e, ok := r.icmp[w.oseq]
		if !ok || r.failed || r.closed {
			r.mu.Unlock()
			return // matched or shut down between expiry and firing
		}
		if r.cmpProgress != w.mark {
			e.w = r.wd.arm(watchCompare, inputKey{}, w.oseq, w.d, r.cmpProgress)
			r.icmp[w.oseq] = e
			r.cfg.Trace.Emit(trace.EvWatchRearm, w.oseq, uint64(w.d), "")
			r.mu.Unlock()
			return
		}
		r.mu.Unlock()
		r.cfg.Trace.Emit(trace.EvCompareFire, w.oseq, uint64(w.d), "")
		r.failSignal(fmt.Sprintf("output %d not matched within %v", w.oseq, w.d))
	case watchOrder:
		r.mu.Lock()
		e, ok := r.irmp[w.key]
		if !ok || r.failed || r.closed {
			r.mu.Unlock()
			return // ordered or shut down between expiry and firing
		}
		if r.gate.known(w.key.wire()) {
			// Still pooled yet known: the source ran a whole window past
			// this input while it waited, so the leader rightly dropped the
			// relay as too old to tell from a duplicate. That is loss, not
			// a leader fault.
			delete(r.irmp, w.key)
			r.mu.Unlock()
			return
		}
		if r.ordProgress != w.mark && w.grants < maxOrderGrants {
			// Unlike the compare stream — whose in-order skip check makes
			// unbounded re-arming safe — the fwd stream carries no signal
			// that the leader has irrevocably passed our input. So each
			// grant re-sends the relay (a correct leader deduplicates;
			// one lost to a reconnect is replaced) and the grant count is
			// capped: a leader that keeps ordering other traffic but has
			// not ordered this input after maxOrderGrants re-relays is
			// faulty, and detection stays bounded by (1+maxOrderGrants)·t2.
			nw := r.wd.arm(watchOrder, w.key, 0, w.d, r.ordProgress)
			nw.grants = w.grants + 1
			e.w = nw
			_ = r.cfg.Net.Send(r.cfg.Self, r.cfg.Peer, MsgRelay, e.raw)
			traceKey(r.cfg.Trace, trace.EvWatchRearm, uint64(nw.grants), uint64(w.d), w.key)
			r.mu.Unlock()
			return
		}
		r.mu.Unlock()
		traceKey(r.cfg.Trace, trace.EvOrderFire, 0, uint64(w.d), w.key)
		r.failSignal(fmt.Sprintf("leader did not order input %s within t2=%v", w.key, w.d))
	case watchSilence:
		r.mu.Lock()
		if r.failed || r.closed {
			r.mu.Unlock()
			return
		}
		now := r.cfg.Clock.Now()
		bound, silent := r.silenceBound(), now.Sub(r.lastFwd)
		switch late := time.Duration(now.UnixNano() - w.at); {
		case silent < bound:
			r.wd.arm(watchSilence, inputKey{}, 0, bound-silent, 0)
			r.mu.Unlock()
		case late > r.loopSlack():
			// This loop woke later than it can on its own: its host
			// stalled, and a fwd held up by the same stall may not have
			// been handled yet. Restart the window rather than blame the
			// leader.
			r.wd.arm(watchSilence, inputKey{}, 0, bound, 0)
			r.stats.StallRearms++
			r.cfg.Trace.Emit(trace.EvStallRearm, uint64(late), uint64(bound), "")
			r.mu.Unlock()
		default:
			r.mu.Unlock()
			r.cfg.Trace.Emit(trace.EvLeaderSilent, uint64(silent), uint64(bound), "")
			r.failSignal(fmt.Sprintf("leader silent for %v since its last fwd (bound %v)", silent, bound))
		}
	}
}

// silenceBound is the longest a correct leader's fwd stream stays silent
// at its follower. The leader's loop orders a tick every TickInterval,
// late by at most its loop slack: the pass in progress when the tick
// comes due (ticks go before the next Step) and its timer's lateness. A2
// delivers the fwd within δ. Silence for longer is a crashed, failed or
// stalled leader. Caller holds r.mu.
func (r *Replica) silenceBound() time.Duration {
	return r.cfg.TickInterval + r.cfg.Delta + r.loopSlack()
}

// loopSlack is how late a replica loop can act on a due instant on its
// own: one pass plus the timer's lateness. The follower steps the same
// inputs as its leader (R1), so its own longest pass stands for the
// leader's.
func (r *Replica) loopSlack() time.Duration { return r.maxPass + timerLateness }

// onSingle implements the Compare receive side: a single-signed candidate
// from the remote Compare is matched against the local ICMP or pooled in
// the ECMP.
func (r *Replica) onSingle(msg transport.Message) {
	if msg.From != r.cfg.Peer {
		r.countRejected()
		return
	}
	env, err := sig.UnmarshalEnvelope(msg.Payload)
	if err != nil {
		r.failSignal(fmt.Sprintf("undecodable single from peer: %v", err))
		return
	}
	// The candidate's content digest doubles as the comparison key below,
	// so computing it first lets a memoising verifier skip its own content
	// hash.
	digest := sig.Digest(env.Body)
	if err := env.VerifyDigest(r.cfg.Verifier, digest); err != nil {
		r.failSignal(fmt.Sprintf("peer single-signature invalid: %v", err))
		return
	}
	body, err := UnmarshalOutputBody(env.Body)
	if err != nil || body.Source != r.cfg.Name || body.FailSignal || !body.DigestOnly {
		r.failSignal("peer single-signed a malformed candidate")
		return
	}

	r.mu.Lock()
	if r.failed || r.closed {
		r.mu.Unlock()
		return
	}
	// The peer emits candidates in output-sequence order and the sync
	// link is FIFO, so a candidate for Seq proves every candidate below
	// Seq has been sent — and, within one incarnation, delivered. A local
	// candidate still unmatched below Seq can therefore never match: the
	// peer skipped it (machine divergence) or the link lost it (an A2
	// violation). Either way the pair must signal, and promptly — this is
	// what keeps divergence detection tight when expired deadlines are
	// allowed to re-arm against a live peer.
	if oldest, ok := r.icmpOldestLocked(); ok && oldest < body.Seq {
		r.mu.Unlock()
		r.failSignal(fmt.Sprintf("peer compare stream reached output %d, skipping unmatched output %d", body.Seq, oldest))
		return
	}
	if body.Seq > r.lastPeerSeq {
		r.lastPeerSeq = body.Seq
		r.cmpProgress++
	}
	if e, ok := r.icmp[body.Seq]; ok {
		r.wd.cancel(e.w)
		delete(r.icmp, body.Seq)
		match := digest == e.digest
		if match {
			r.stats.Matched++
		}
		if match {
			r.cfg.Trace.Emit(trace.EvCompareMatch, body.Seq, 0, "")
		}
		dests, full := e.dests, e.full
		r.mu.Unlock()
		if !match {
			r.failSignal(fmt.Sprintf("output %d content mismatch", body.Seq))
			return
		}
		r.dispatchMatched(env, dests, full)
		return
	}
	r.ecmp[body.Seq] = ecmpEntry{env: env, digest: digest}
	overflow := len(r.ecmp) > maxECMP
	r.cfg.Trace.Emit(trace.EvComparePeer, body.Seq, 0, "")
	r.mu.Unlock()
	if overflow {
		r.failSignal("peer flooded the external candidate pool")
	}
}

// icmpOldestLocked returns the smallest outstanding ICMP sequence (false
// when none). Matched heads are discarded as they are encountered; each
// inserted sequence is popped at most once, so the amortized cost is
// constant. Caller holds r.mu.
func (r *Replica) icmpOldestLocked() (uint64, bool) {
	for len(r.icmpOrder) > 0 {
		if _, ok := r.icmp[r.icmpOrder[0]]; ok {
			return r.icmpOrder[0], true
		}
		r.icmpOrder = r.icmpOrder[1:]
	}
	return 0, false
}

// maxOrderGrants caps how many fresh t2 windows an expired order
// deadline may be granted on evidence of leader progress, bounding
// detection of a selectively-starved input at (1+maxOrderGrants)·t2.
const maxOrderGrants = 8

// timerLateness is how late the loop's clock timer may fire on a healthy
// host. clock.BenchmarkRealTimerLateness measures a Real timer in an idle
// Go 1.24 process on a 2-vCPU Xeon firing 0.85–0.89 ms late on average,
// the runtime's 1 ms idle netpoll quantum, and the worst of 1,000 fires
// 1.2–3.8 ms late in seven of eight runs (6.6 ms once). Five quanta leave
// room for a loaded host. A later wake-up is taken as a stall of the
// replica's own host (see watchFired), which costs at most one more
// silence bound.
const timerLateness = 5 * time.Millisecond

// maxECMP bounds how far ahead of the local machine the peer's candidate
// stream may run before the peer is considered faulty.
const maxECMP = 1 << 16

// dispatchMatched counter-signs the peer's candidate — producing the
// double-signed output that is the valid output form of the FS process —
// and sends it to every destination. full is the output encoding whose
// digest the signed body carries; it rides beside the double signature in
// a tagFSD payload, encoded once and shared by every destination.
func (r *Replica) dispatchMatched(peerEnv sig.Envelope, dests []string, full []byte) {
	dbl, err := sig.CounterSign(r.cfg.Signer, peerEnv)
	if err != nil {
		r.failSignal(fmt.Sprintf("cannot counter-sign matched output: %v", err))
		return
	}
	payload := encodeFSDigestPayload(dbl, full)
	for _, dest := range dests {
		r.sendToDest(dest, payload)
	}
}

// sendToDest routes a double-signed payload to one logical destination.
func (r *Replica) sendToDest(dest string, payload []byte) {
	if dest == sm.LocalDelivery {
		if r.cfg.LocalName == "" {
			return
		}
		dest = r.cfg.LocalName
	}
	info, err := r.cfg.Dir.Lookup(dest)
	if err != nil {
		return
	}
	if info.Kind == KindFS {
		_ = r.cfg.Net.Send(r.cfg.Self, info.Addrs[0], MsgNew, payload)
		_ = r.cfg.Net.Send(r.cfg.Self, info.Addrs[1], MsgNew, payload)
		return
	}
	_ = r.cfg.Net.Send(r.cfg.Self, info.Addrs[0], MsgOut, payload)
}

// failSignal transitions the Compare thread into its failure mode: it
// counter-signs the pre-supplied fail-signal, emits it to every pending
// destination plus the configured watchers, ceases interacting with the
// peer (the loop stops, and nothing more is ordered, relayed or sent to
// the peer), and thereafter answers any incoming message with the
// fail-signal.
func (r *Replica) failSignal(reason string) {
	r.mu.Lock()
	if r.failed || r.closed {
		r.mu.Unlock()
		return
	}
	r.failed = true
	r.loop.Kick()
	r.cfg.Trace.Emit(trace.EvFailSignal, 0, 0, reason)
	destSet := r.dropPoolsLocked()
	for _, w := range r.cfg.Watchers {
		destSet[w] = true
	}
	if r.cfg.LocalName != "" {
		destSet[r.cfg.LocalName] = true
	}
	dbl, err := sig.CounterSign(r.cfg.Signer, r.cfg.PeerFailEnv)
	if err != nil {
		// Without a signable fail-signal the replica can only fall silent;
		// the peer's timeouts then signal on the pair's behalf.
		r.mu.Unlock()
		return
	}
	r.failDbl = dbl
	r.stats.FailSignals += uint64(len(destSet))
	hook := r.cfg.OnFailSignal
	r.mu.Unlock()

	payload := encodeFSPayload(dbl)
	dests := make([]string, 0, len(destSet))
	for dest := range destSet {
		dests = append(dests, dest)
	}
	sort.Strings(dests) // one send order every run
	for _, dest := range dests {
		r.sendToDest(dest, payload)
	}
	if hook != nil {
		hook(reason)
	}
}

// replyIfFailed answers an incoming message with the fail-signal when the
// replica has already failed. Reports whether the caller should stop.
func (r *Replica) replyIfFailed(from transport.Addr) bool {
	r.mu.Lock()
	if !r.failed {
		done := r.closed
		r.mu.Unlock()
		return done
	}
	dbl := r.failDbl
	r.stats.FailSignals++
	r.mu.Unlock()
	if len(dbl.SecondSig) != 0 && from != r.cfg.Peer {
		_ = r.cfg.Net.Send(r.cfg.Self, from, MsgOut, encodeFSPayload(dbl))
	}
	return true
}

func (r *Replica) countRejected() {
	r.mu.Lock()
	r.stats.Rejected++
	r.cfg.Trace.Emit(trace.EvReject, 0, 0, "")
	r.mu.Unlock()
}
