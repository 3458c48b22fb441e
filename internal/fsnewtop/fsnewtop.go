// Package fsnewtop implements FS-NewTOP (Section 3.1): the Byzantine-
// tolerant extension of crash-tolerant NewTOP, obtained by replacing each
// member's crash-prone GC process with a fail-signal process (a
// self-checking replica pair, package internal/core) and its ping-based
// failure suspector with one that converts verified fail-signals into
// suspicions that cannot be false.
//
// The wrapping is transparent in the paper's sense: the application API
// (newtop.Service) is unchanged. The paper catches the invocation layer's
// ORB calls to the member's "<name>/gc" object on the fly with a client
// interceptor (the Eternal technique of [NMM99, NMM00]); here the NSO's
// submit methods — Join, JoinExisting, Multicast — are that interception
// point. Each marshals its request exactly as crash NewTOP does and
// re-issues it, through the accumulation window, as a signed input to both
// replicas of the FS pair, with the leader FSO ordering them identically
// for GC and GC'. An FS member therefore has no ORB: no call of its ever
// crossed one. Returning double-signed outputs are verified, stripped of
// signatures and de-duplicated before the invocation layer sees them. The
// GC machine itself (package group) is byte-for-byte the same state
// machine NewTOP runs; only its suspector mode differs.
//
// Deployment cost (Section 3.1): masking f Byzantine faults at the
// application level needs 2f+1 application replicas, each with its own
// FS-GC of two nodes — 4f+2 nodes in total, f+1 more than the 3f+1
// optimum of traditional BFT protocols. NodesRequired makes the
// arithmetic testable.
package fsnewtop

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/codec"
	failsignal "fsnewtop/internal/core"
	"fsnewtop/internal/group"
	"fsnewtop/internal/newtop"
	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
	"fsnewtop/internal/trace"
	"fsnewtop/transport"
)

// NodesRequired returns the node count FS-NewTOP needs to mask f Byzantine
// faults: 2f+1 application replicas, each with a two-node FS middleware
// pair (Figure 4).
func NodesRequired(f int) int { return 4*f + 2 }

// BFTNodesRequired returns the traditional Byzantine-tolerant requirement
// the paper compares against.
func BFTNodesRequired(f int) int { return 3*f + 1 }

// ReplicasRequired returns the application replica count for masking f
// Byzantine faults by majority voting (2f+1).
func ReplicasRequired(f int) int { return 2*f + 1 }

// Fabric is the shared deployment substrate for an FS-NewTOP cluster: one
// per test/benchmark/example deployment.
type Fabric struct {
	Net   transport.Transport
	Clock clock.Clock
	Dir   *failsignal.Directory
	Keys  *sig.Directory
	// NewSigner builds signers for Compare threads and invocation layers.
	// Nil selects HMAC (fast; for benchmarks isolating protocol cost).
	NewSigner func(id sig.ID) (sig.Signer, error)
	// Trace, if non-nil, is the deployment's protocol trace registry.
	// Every member built on the fabric registers one event ring per
	// modeled node (leader FSO, follower FSO, invocation endpoint), so a
	// stall dump is a merged causal timeline across the whole cluster.
	// Set it before the first New call.
	Trace *trace.Registry

	mu        sync.Mutex
	verifiers []*sig.CachedVerifier
}

// NewFabric assembles a fabric over one network. The shared key directory
// is the deployment's verification plane: its copy-on-write snapshot makes
// registration of new members safe against in-flight verifies. Nothing
// memoises: every modeled node (each FSO, each invocation-layer endpoint)
// gets a private counting verifier over the shared material, so the
// in-process figures pay — and report — the paper's per-node crypto cost.
func NewFabric(net transport.Transport, clk clock.Clock) *Fabric {
	return &Fabric{
		Net:   net,
		Clock: clk,
		Dir:   failsignal.NewDirectory(),
		Keys:  sig.NewDirectoryCache(0),
	}
}

// newVerifier builds one modeled node's verifier and tracks it for
// SigCacheStats. It carries no memo (capacity 0): core's admission gate
// drops every copy of an input a node already holds before verification,
// so nothing a node verifies repeats and a memo would only be probed,
// filled and never hit — at several times the cost of the HMAC it guards.
func (f *Fabric) newVerifier() *sig.CachedVerifier {
	v := sig.NewCachedVerifier(f.Keys, 0)
	f.mu.Lock()
	f.verifiers = append(f.verifiers, v)
	f.mu.Unlock()
	return v
}

// dropVerifiers releases a closed member's verifiers so a long-lived
// fabric with membership churn does not accumulate dead nodes' counters
// in SigCacheStats.
func (f *Fabric) dropVerifiers(vs []*sig.CachedVerifier) {
	drop := make(map[*sig.CachedVerifier]bool, len(vs))
	for _, v := range vs {
		drop[v] = true
	}
	f.mu.Lock()
	kept := f.verifiers[:0]
	for _, v := range f.verifiers {
		if !drop[v] {
			kept = append(kept, v)
		}
	}
	for i := len(kept); i < len(f.verifiers); i++ {
		f.verifiers[i] = nil
	}
	f.verifiers = kept
	f.mu.Unlock()
}

// SigCacheStats sums the verification counters across every live node's
// verifier. Experiments use it to attribute FS overhead to crypto: Misses
// is the number of real signature checks made; Hits is zero, since no node
// memoises.
func (f *Fabric) SigCacheStats() sig.CacheStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	var total sig.CacheStats
	for _, v := range f.verifiers {
		cs := v.CacheStats()
		total.Hits += cs.Hits
		total.Misses += cs.Misses
		total.Evictions += cs.Evictions
	}
	return total
}

// Config configures one FS-NewTOP member.
type Config struct {
	// Name is the member's logical name; its FS-GC pair is registered
	// under this name in the fail-signal directory.
	Name string
	// Fabric is the shared deployment substrate.
	Fabric *Fabric
	// Peers are the other members' names: they are watchers of this
	// member's fail-signal (their GCs must learn of our failure).
	Peers []string
	// Clock, if non-nil, overrides the fabric clock for this member's pair
	// and window. The chaos plane's clock-skew faults use it to give each
	// member its own skewed view of one shared virtual timeline.
	Clock clock.Clock
	// Delta is δ for the pair's synchronous link. Required: its default
	// lives in package cluster alone.
	Delta time.Duration
	// SyncLink, if non-nil, is applied to the pair's leader↔follower link.
	SyncLink *transport.Profile
	// WrapMachine, if set, wraps each GC machine replica before its FSO
	// starts (see failsignal.PairConfig.WrapMachine). The chaos plane
	// installs runtime-armable faults.Switch wrappers through it, so a
	// value fault can be injected into exactly one half of the pair
	// mid-run.
	WrapMachine func(role failsignal.Role, m sm.Machine) sm.Machine
}

// NSO is a Byzantine-tolerant FS-NewTOP member. It implements
// newtop.Service, so applications cannot tell it from a crash-tolerant
// NSO — which is the point.
type NSO struct {
	name       string
	clk        clock.Clock // stamps each delivery's hand-off
	fab        *Fabric
	pair       *failsignal.Pair
	client     *failsignal.Client
	receiver   *failsignal.Receiver
	verifiers  []*sig.CachedVerifier // this member's node verifiers, released on Close
	invRing    *trace.Ring
	deliveries chan newtop.Delivery
	views      chan newtop.View
	failures   chan string
	// win is the accumulation window every GC-bound call goes through.
	win *window
	// stop is closed by Close: a delivery or view hand-off parked on an
	// application that stopped draining gives up rather than pin the
	// transport goroutine that carried it.
	stop      chan struct{}
	closeOnce sync.Once
}

var _ newtop.Service = (*NSO)(nil)

// invName returns the logical name of a member's invocation endpoint.
func invName(member string) string { return member + "/inv" }

// InvAddr returns the transport address of a member's invocation-layer
// endpoint (the application-node process that receives the pair's
// double-signed outputs). Deployment tooling uses it to enumerate every
// address a member occupies on the wire.
func InvAddr(member string) transport.Addr { return transport.Addr("addr:" + invName(member)) }

// DerivedHMACKey is the deterministic key-derivation convention the
// default (HMAC) signer uses: every identity's key is a pure function of
// the identity itself. Within one process that is merely a convenience;
// across processes it is what lets a multi-process deployment verify
// remote members' signatures without a key-distribution channel — each
// process derives its peers' verification keys locally. The paper's
// MD5-with-RSA scheme has no such shortcut (keys are minted at signer
// construction), which is why multi-process bring-up is HMAC-only until a
// real key-exchange step exists.
func DerivedHMACKey(id sig.ID) []byte { return []byte("hmac-key:" + string(id)) }

// New builds and starts one FS-NewTOP member: the FS pair wrapping its GC
// machine, the invocation-layer endpoint, and the accumulation window its
// submit methods re-issue GC-bound calls through.
func New(cfg Config) (*NSO, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("fsnewtop: member needs a name")
	}
	if cfg.Fabric == nil {
		return nil, fmt.Errorf("fsnewtop: member %q needs a fabric", cfg.Name)
	}
	if cfg.Delta <= 0 {
		return nil, fmt.Errorf("fsnewtop: member %q needs δ > 0 (got %v)", cfg.Name, cfg.Delta)
	}
	fab := cfg.Fabric
	clk := cfg.Clock
	if clk == nil {
		clk = fab.Clock
	}
	newSigner := fab.NewSigner
	if newSigner == nil {
		newSigner = func(id sig.ID) (sig.Signer, error) {
			return sig.NewHMACSigner(id, DerivedHMACKey(id)), nil
		}
	}

	n := &NSO{
		name:       cfg.Name,
		clk:        clk,
		fab:        fab,
		deliveries: make(chan newtop.Delivery, newtop.ChannelBuffer),
		views:      make(chan newtop.View, newtop.ChannelBuffer),
		failures:   make(chan string, 64),
		stop:       make(chan struct{}),
	}
	n.win = newWindow(clk, cfg.Delta, n.reissue)
	newVerifier := func() *sig.CachedVerifier {
		v := fab.newVerifier()
		n.verifiers = append(n.verifiers, v)
		return v
	}
	// Any failure below must release the verifiers already registered, or
	// a long-lived fabric would retain them (and their stats) forever.
	built := false
	defer func() {
		if !built {
			fab.dropVerifiers(n.verifiers)
		}
	}()

	// Invocation-layer endpoint: a plain process in the FS directory that
	// receives the pair's double-signed outputs.
	inv := invName(cfg.Name)
	invAddr := InvAddr(cfg.Name)
	var invRing *trace.Ring
	if fab.Trace != nil {
		invRing = fab.Trace.Ring(inv)
	}
	n.invRing = invRing
	// The invocation layer runs on the application node: its own verifier.
	n.receiver = failsignal.NewReceiver(fab.Dir, newVerifier(), n.onOutput, n.onFailSignal)
	n.receiver.SetTrace(invRing)
	fab.Net.Register(invAddr, n.receiver.Handle)
	fab.Dir.RegisterPlain(inv, invAddr)

	invSigner, err := newSigner(sig.ID(inv))
	if err != nil {
		return nil, fmt.Errorf("fsnewtop: signer for %q: %w", inv, err)
	}
	if err := fab.Keys.RegisterSigner(invSigner); err != nil {
		return nil, err
	}
	n.client = failsignal.NewClient(inv, invAddr, invSigner, fab.Net, fab.Dir)

	// The GC machine: identical to crash NewTOP's, with the fail-signal
	// suspector selected, inside the coalescer — so a batched input also
	// leaves as batched outputs rather than fanning back out into
	// per-message FS rounds.
	gcCfg := group.Config{Self: cfg.Name, Mode: group.SuspectFailSignal}

	pair, err := failsignal.NewPair(failsignal.PairConfig{
		Name:         cfg.Name,
		NewMachine:   func() sm.Machine { return coalescer{group.New(gcCfg)} },
		WrapMachine:  cfg.WrapMachine,
		Net:          fab.Net,
		Clock:        clk,
		Dir:          fab.Dir,
		Keys:         fab.Keys,
		NewSigner:    newSigner,
		NewVerifier:  func() sig.Verifier { return newVerifier() },
		Delta:        cfg.Delta,
		TickInterval: group.TickInterval,
		LocalName:    inv,
		Watchers:     cfg.Peers,
		SyncLink:     cfg.SyncLink,
		Trace:        fab.Trace,
	})
	if err != nil {
		return nil, err
	}
	n.pair = pair
	built = true
	return n, nil
}

// reissue signs one input and submits it to both pair halves, recording
// the submission in the invocation trace. The window calls it, holding its
// lock — which is what keeps the client's sequence numbers in submission
// order.
func (n *NSO) reissue(kind string, payload []byte, g *codec.Gather) error {
	seq, err := n.client.SendSeq(n.name, kind, payload, g)
	if err != nil {
		// No reissue event: recording a submission that never reached the
		// pair would point a stall post-mortem at the replicas when the
		// client path failed.
		return err
	}
	n.invRing.Emit(trace.EvReissue, seq, 0, kind)
	return nil
}

// onOutput receives one verified, de-duplicated FS output addressed to the
// invocation layer and converts it back into an application event.
func (n *NSO) onOutput(source string, out sm.Output) {
	n.onEvent(out.Kind, out.Payload, 0)
}

// onEvent converts one application event, unpacking a coalesced KindBatch
// envelope one level deep: a run of deliveries reaches the invocation
// layer as a single FS output.
func (n *NSO) onEvent(kind string, payload []byte, depth int) {
	switch kind {
	case group.KindDeliver:
		if d, err := group.UnmarshalDeliver(payload); err == nil {
			if d.Origin == n.name {
				n.win.ownDelivered()
			}
			newtop.HandOff(n.deliveries, newtop.NewDelivery(d, n.clk.Now()), n.stop)
		}
	case group.KindView:
		if v, err := group.UnmarshalViewNote(payload); err == nil {
			newtop.HandOff(n.views, newtop.View{Group: v.Group, ViewID: v.ViewID, Members: v.Members}, n.stop)
		}
	case group.KindBatch:
		if depth == 0 {
			if bm, err := group.UnmarshalBatchMsg(payload); err == nil {
				for _, it := range bm.Items {
					n.onEvent(it.Kind, it.Payload, depth+1)
				}
			}
		}
	}
}

// onFailSignal surfaces a fail-signal (usually our own pair's: the
// invocation layer is in its LocalName destinations) to the application.
// An open accumulation window is flushed first: whatever reaction the
// application has to the failure must not queue behind the window's
// backstop.
func (n *NSO) onFailSignal(source string) {
	n.win.flush()
	select {
	case n.failures <- source:
	default:
	}
}

// Name implements newtop.Service.
func (n *NSO) Name() string { return n.name }

// Join implements newtop.Service. The request is the one crash NewTOP
// sends its GC object; it is re-issued into the FS pair instead.
func (n *NSO) Join(groupName string, members []string) error {
	return n.win.submit(group.KindJoin, group.JoinReq{Group: groupName, Members: members}.Marshal(), nil)
}

// JoinExisting implements newtop.Service: dynamic admission through the
// given contacts. The request reaches both pair halves like any other
// input, so the whole join protocol — ask, snapshot install, admission
// view — runs inside the byte-compared replicas.
func (n *NSO) JoinExisting(groupName string, contacts []string) error {
	return n.win.submit(group.KindJoinExisting, group.JoinExistingReq{Group: groupName, Contacts: contacts}.Marshal(), nil)
}

// AddPeer registers one more member as a watcher of this pair's
// fail-signal. Called when the deployment admits a member after this one
// started: "all entities expecting a response" must include it.
func (n *NSO) AddPeer(name string) { n.pair.AddWatcher(name) }

// Multicast implements newtop.Service. The payload is copied in once, here,
// when it is long enough to travel by reference: from then on every
// encoder and the transport reference that copy, which nothing writes,
// while the application is free to reuse its own buffer.
func (n *NSO) Multicast(groupName string, svc group.Service, payload []byte) error {
	if codec.Held(payload) > 0 {
		payload = bytes.Clone(payload)
	}
	req, g := group.McastReq{Group: groupName, Service: svc, Payload: payload}.MarshalGather()
	return n.win.submit(group.KindMcast, req, g)
}

// Deliveries implements newtop.Service.
func (n *NSO) Deliveries() <-chan newtop.Delivery { return n.deliveries }

// Views implements newtop.Service.
func (n *NSO) Views() <-chan newtop.View { return n.views }

// FailSignals streams the sources of received fail-signals.
func (n *NSO) FailSignals() <-chan string { return n.failures }

// Pair exposes the member's FS pair (fault injection in tests).
func (n *NSO) Pair() *failsignal.Pair { return n.pair }

// Close implements newtop.Service: it releases any hand-off parked on the
// application, then stops the window and the pair and deregisters the
// invocation endpoint. Idempotent.
func (n *NSO) Close() {
	n.closeOnce.Do(func() {
		close(n.stop)
		n.win.close()
		n.pair.Close()
		n.fab.Net.Deregister(InvAddr(n.name))
		n.fab.dropVerifiers(n.verifiers)
	})
}

// Receiver exposes the member's invocation-layer receiver (its counters,
// in tests).
func (n *NSO) Receiver() *failsignal.Receiver { return n.receiver }
