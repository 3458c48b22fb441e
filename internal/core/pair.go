package failsignal

import (
	"fmt"
	"sync"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
	"fsnewtop/internal/trace"
	"fsnewtop/transport"
)

// PairConfig configures the construction of one fail-signal process.
type PairConfig struct {
	// Name is the logical name other processes use to address this FS
	// process.
	Name string
	// NewMachine builds one replica of the wrapped deterministic machine.
	// It is called twice; the two instances must satisfy R1.
	NewMachine func() sm.Machine
	// WrapMachine, if set, wraps each freshly built machine before its
	// replica starts; role identifies which half of the pair it will
	// drive. Fault-injection harnesses use it to install perturbing
	// wrappers (e.g. faults.Switch) into exactly one half — the paper's
	// systematic fault-injection validation hook. The wrapper sees the
	// same single-threaded Step discipline the machine does.
	WrapMachine func(role Role, m sm.Machine) sm.Machine
	// Net carries both the pair's synchronous link and external traffic.
	Net transport.Transport
	// Clock drives all timeouts.
	Clock clock.Clock
	// Dir is the deployment directory; the pair registers itself in it.
	Dir *Directory
	// Keys is the signature directory; the pair's Compare identities are
	// registered in it.
	Keys *sig.Directory
	// NewSigner builds a signer for a Compare identity. Nil selects
	// HMAC-SHA256 with a key derived from the identity (test default).
	NewSigner func(id sig.ID) (sig.Signer, error)
	// NewVerifier, if set, builds each replica's inbound verifier; it is
	// called once per replica, so a deployment can count (see
	// sig.CachedVerifier) every modeled node's checks apart over the
	// shared key material. Nil means both replicas verify directly
	// against Keys.
	NewVerifier func() sig.Verifier
	// Delta and TickInterval: see ReplicaConfig.
	Delta        time.Duration
	TickInterval time.Duration
	// LocalName and Watchers: see ReplicaConfig.
	LocalName string
	Watchers  []string
	// SyncLink, if non-nil, is applied as the netsim profile of the
	// leader↔follower link (the A2 synchronous LAN).
	SyncLink *transport.Profile
	// OnFailSignal: see ReplicaConfig.
	OnFailSignal func(reason string)
	// Trace, if non-nil, is the deployment's trace registry: the pair
	// registers one event ring per FSO (named "<name>#L" / "<name>#F")
	// and threads each through its replica, watchdog, and — when the
	// machine implements trace.Traceable — the wrapped machine.
	Trace *trace.Registry
}

// LeaderAddr returns the network address of the pair's leader FSO.
func LeaderAddr(name string) transport.Addr { return transport.Addr(name + "#L") }

// FollowerAddr returns the network address of the pair's follower FSO.
func FollowerAddr(name string) transport.Addr { return transport.Addr(name + "#F") }

// LeaderID returns the signing identity of the pair's leader Compare.
func LeaderID(name string) sig.ID { return sig.ID(name + "#L") }

// FollowerID returns the signing identity of the pair's follower Compare.
func FollowerID(name string) sig.ID { return sig.ID(name + "#F") }

// Pair is a running fail-signal process: the replica pair plus its
// registration data.
type Pair struct {
	Name     string
	Leader   *Replica
	Follower *Replica
}

// defaultSigner derives an HMAC signer from the identity. Adequate for
// tests and benchmarks that are not measuring signature cost.
func defaultSigner(id sig.ID) (sig.Signer, error) {
	return sig.NewHMACSigner(id, []byte("hmac-key:"+string(id))), nil
}

// NewPair builds, wires and starts a fail-signal process per Section 2.1:
// it creates the two Compare signers, registers their verification
// material, performs the start-up exchange of single-signed fail-signal
// envelopes, registers the process in the directory, and starts both
// replicas. Both nodes are assumed correct at this point (assumption A1).
func NewPair(cfg PairConfig) (*Pair, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("failsignal: pair needs a name")
	}
	if cfg.NewMachine == nil {
		return nil, fmt.Errorf("failsignal: pair %q needs a machine factory", cfg.Name)
	}
	newSigner := cfg.NewSigner
	if newSigner == nil {
		newSigner = defaultSigner
	}
	leaderSigner, err := newSigner(LeaderID(cfg.Name))
	if err != nil {
		return nil, fmt.Errorf("failsignal: pair %q leader signer: %w", cfg.Name, err)
	}
	followerSigner, err := newSigner(FollowerID(cfg.Name))
	if err != nil {
		return nil, fmt.Errorf("failsignal: pair %q follower signer: %w", cfg.Name, err)
	}
	if err := cfg.Keys.RegisterSigner(leaderSigner); err != nil {
		return nil, err
	}
	if err := cfg.Keys.RegisterSigner(followerSigner); err != nil {
		return nil, err
	}

	// Start-up exchange: each Compare receives the fail-signal body
	// pre-signed by the other, so that either can later produce the unique
	// double-signed fail-signal of the process on its own.
	fsBody := failSignalBody(cfg.Name).Marshal()
	envByLeader, err := sig.SignEnvelope(leaderSigner, fsBody)
	if err != nil {
		return nil, fmt.Errorf("failsignal: pre-signing fail-signal: %w", err)
	}
	envByFollower, err := sig.SignEnvelope(followerSigner, fsBody)
	if err != nil {
		return nil, fmt.Errorf("failsignal: pre-signing fail-signal: %w", err)
	}

	lAddr, fAddr := LeaderAddr(cfg.Name), FollowerAddr(cfg.Name)
	cfg.Dir.RegisterFS(cfg.Name, lAddr, fAddr, LeaderID(cfg.Name), FollowerID(cfg.Name))
	if cfg.SyncLink != nil {
		// Shaping the pair's synchronous link is a simulation concern: on a
		// fault-injecting transport it models the A2 LAN; on a real network
		// the LAN is whatever the wire provides, so the request is ignored.
		transport.Shape(cfg.Net, lAddr, fAddr, *cfg.SyncLink)
	}

	base := ReplicaConfig{
		Name:         cfg.Name,
		Net:          cfg.Net,
		Clock:        cfg.Clock,
		Dir:          cfg.Dir,
		Verifier:     cfg.Keys,
		Delta:        cfg.Delta,
		TickInterval: cfg.TickInterval,
		LocalName:    cfg.LocalName,
		Watchers:     cfg.Watchers,
		OnFailSignal: cfg.OnFailSignal,
	}

	wrap := cfg.WrapMachine
	if wrap == nil {
		wrap = func(_ Role, m sm.Machine) sm.Machine { return m }
	}

	leaderCfg := base
	leaderCfg.Role = Leader
	leaderCfg.Self, leaderCfg.Peer = lAddr, fAddr
	leaderCfg.Signer = leaderSigner
	leaderCfg.PeerFailEnv = envByFollower
	leaderCfg.Machine = wrap(Leader, cfg.NewMachine())

	followerCfg := base
	followerCfg.Role = Follower
	followerCfg.Self, followerCfg.Peer = fAddr, lAddr
	followerCfg.Signer = followerSigner
	followerCfg.PeerFailEnv = envByLeader
	followerCfg.Machine = wrap(Follower, cfg.NewMachine())

	if cfg.Trace != nil {
		leaderCfg.Trace = cfg.Trace.Ring(string(LeaderID(cfg.Name)))
		followerCfg.Trace = cfg.Trace.Ring(string(FollowerID(cfg.Name)))
	}

	if cfg.NewVerifier != nil {
		// One verifier per replica: the two FSOs are separate nodes.
		leaderCfg.Verifier = cfg.NewVerifier()
		followerCfg.Verifier = cfg.NewVerifier()
	}

	leader, err := NewReplica(leaderCfg)
	if err != nil {
		return nil, err
	}
	follower, err := NewReplica(followerCfg)
	if err != nil {
		leader.Close()
		return nil, err
	}
	return &Pair{Name: cfg.Name, Leader: leader, Follower: follower}, nil
}

// Close stops both replicas.
func (p *Pair) Close() {
	p.Leader.Close()
	p.Follower.Close()
}

// Failed reports whether either FSO has started fail-signalling.
func (p *Pair) Failed() bool { return p.Leader.Failed() || p.Follower.Failed() }

// AddWatcher registers name as a fail-signal watcher on both FSOs — the
// dynamic-membership counterpart of PairConfig.Watchers, used when a
// member is admitted after this pair started.
func (p *Pair) AddWatcher(name string) {
	p.Leader.AddWatcher(name)
	p.Follower.AddWatcher(name)
}

// Client submits signed inputs to FS processes on behalf of a plain
// endpoint. It numbers its requests so replicas can suppress the duplicate
// copies that dual submission produces.
type Client struct {
	name   string
	addr   transport.Addr
	signer sig.Signer
	net    transport.Transport
	dir    *Directory

	mu  sync.Mutex
	seq uint64
}

// NewClient registers (if needed) and returns a client identity. The
// client's signer must already be registered in the verifier used by the
// destination replicas.
func NewClient(name string, addr transport.Addr, signer sig.Signer, net transport.Transport, dir *Directory) *Client {
	return &Client{name: name, addr: addr, signer: signer, net: net, dir: dir}
}

// Send signs and submits one input to every replica of dest.
func (c *Client) Send(dest, kind string, body []byte) error {
	_, err := c.SendSeq(dest, kind, body)
	return err
}

// SendSeq is Send returning the per-client sequence the input was
// submitted under — the number that appears in the replicas' dedupe keys
// (traced as "c|<client>|<seq>"), so callers can correlate a submission with the
// order/compare trace events it produces.
func (c *Client) SendSeq(dest, kind string, body []byte) (uint64, error) {
	c.mu.Lock()
	c.seq++
	seq := c.seq
	c.mu.Unlock()

	ci := ClientInput{Client: c.name, Seq: seq, Kind: kind, Body: body}
	env, err := sig.SignEnvelope(c.signer, ci.Marshal())
	if err != nil {
		return seq, fmt.Errorf("failsignal: client %q signing input: %w", c.name, err)
	}
	payload := encodeClientPayload(env)
	addrs, err := c.dir.DestAddrs(dest)
	if err != nil {
		return seq, err
	}
	for _, a := range addrs {
		if err := c.net.Send(c.addr, a, MsgNew, payload); err != nil {
			return seq, err
		}
	}
	return seq, nil
}

// Receiver is the plain-endpoint counterpart of an FS process's output
// side: it suppresses the duplicate copies produced by the two Compare
// threads, verifies the double signatures of the copy it keeps, and
// dispatches verified outputs and fail-signals to callbacks in the order
// it accepted them. It corresponds to the interceptor that "strips
// signatures and suppresses duplicates" at the invocation layer
// (Section 3.1).
type Receiver struct {
	dir      *Directory
	verifier sig.Verifier
	onOutput func(source string, out sm.Output)
	onFail   func(source string)
	ring     *trace.Ring

	mu   sync.Mutex // guards gate; acceptance order is the order it is taken in
	gate gate
	// handoff serialises the callbacks. An accepting goroutine takes it
	// before releasing mu, so two links' handler goroutines hand their
	// outputs to the application in acceptance order, while duplicates
	// keep probing the gate behind a slow callback.
	handoff sync.Mutex
}

// NewReceiver builds a receiver. Either callback may be nil.
func NewReceiver(dir *Directory, verifier sig.Verifier, onOutput func(string, sm.Output), onFail func(string)) *Receiver {
	return &Receiver{
		dir:      dir,
		verifier: verifier,
		onOutput: onOutput,
		onFail:   onFail,
		gate:     newGate(),
	}
}

// SetTrace attaches the invocation-layer node's event ring. The receiver
// emits output-acceptance, duplicate-suppression, and fail-signal events
// into it — the interceptor side of the trace plane.
func (rc *Receiver) SetTrace(ring *trace.Ring) { rc.ring = ring }

// Handle is the transport handler for the receiving endpoint. Like
// Replica.onNew it asks the gate before the verifier; decoding and
// verification run outside both locks.
func (rc *Receiver) Handle(msg transport.Message) {
	if msg.Kind != MsgOut && msg.Kind != MsgNew {
		return
	}
	k, ok := peekKey(msg.Payload)
	if !ok || k.kind == keyClient {
		return
	}
	rc.mu.Lock()
	dup := rc.dupLocked(k)
	rc.mu.Unlock()
	if dup {
		return
	}
	p, err := decodeNewPayload(msg.Payload)
	if err != nil {
		return
	}
	if err := rc.dir.VerifyFromFS(p.body.Source, p.dbl, rc.verifier); err != nil {
		rc.ring.Emit(trace.EvReject, p.body.Seq, 0, p.body.Source)
		return
	}
	var out sm.Output
	if !p.body.FailSignal {
		out, err = sm.UnmarshalOutput(p.full)
	}

	rc.mu.Lock()
	if rc.dupLocked(k) { // the other copy was verified and accepted meanwhile
		rc.mu.Unlock()
		return
	}
	rc.gate.mark(k)
	// Accept events are emitted under the lock so the ring's order
	// matches acceptance order across concurrent link deliveries.
	if p.body.FailSignal {
		rc.ring.Emit(trace.EvRxFail, 0, 0, p.body.Source)
	} else {
		rc.ring.Emit(trace.EvRxOutput, p.body.Seq, 0, p.body.Source)
	}
	rc.handoff.Lock()
	rc.mu.Unlock()
	defer rc.handoff.Unlock()

	switch {
	case p.body.FailSignal:
		if rc.onFail != nil {
			rc.onFail(p.body.Source)
		}
	case err == nil && rc.onOutput != nil:
		rc.onOutput(p.body.Source, out)
	}
}

// dupLocked reports whether k was already accepted, tracing the suppressed
// copy. Caller holds rc.mu.
func (rc *Receiver) dupLocked(k wireKey) bool {
	if !rc.gate.known(k) {
		return false
	}
	if rc.ring != nil {
		rc.ring.Emit(trace.EvRxDup, k.seq, 0, string(k.source))
	}
	return true
}
