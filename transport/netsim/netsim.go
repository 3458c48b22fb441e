// Package netsim is the simulated backend of the transport plane (package
// transport). It provides an in-process message-passing network whose links
// model the two network classes the paper assumes:
//
//   - the synchronous LAN connecting the two nodes of a fail-signal pair
//     (assumption A2: reliable, delivers within a known bound δ), and
//   - the reliable asynchronous network connecting FS processes to each
//     other (no bound on message delays).
//
// Links are FIFO and, by default, lossless. Each link carries a Profile:
// a latency model, a bandwidth (which converts message size into
// serialization delay — this is what gives Figure 8 its message-size
// dependence), and an optional loss rate plus partition switch used only by
// tests exercising the reliability and membership layers.
//
// # Delivery scheduling
//
// Delivery is driven by a small fixed pool of dispatcher shards (default
// GOMAXPROCS, and one under a virtual clock; see WithShards). Each link
// direction hashes to one shard, which owns a min-heap of pending
// deliveries keyed on delivery deadline and runs one clock.Loop aimed at
// the earliest one. Per-link FIFO is
// enforced by clamping each message's deadline to be no earlier than its
// link's previous message — the Order protocol in internal/core depends on
// the leader→follower link never reordering. Steady-state goroutine count
// is O(shards), not O(links), and the send path serializes only on the
// target link's shard, so concurrent senders to different shards never
// contend. BenchmarkNetsimFanout tracks both properties; EXPERIMENTS.md
// records the numbers against the old per-link-goroutine scheduler.
//
// The substitution this package embodies is documented in DESIGN.md: the
// paper ran on 16 Pentium III PCs on a 100 Mb LAN; we run the identical
// protocol code paths in one process and recover the figures' *shapes*
// rather than their absolute values.
package netsim

import (
	"fmt"

	"runtime"
	"sync"
	"sync/atomic"

	"fsnewtop/internal/clock"
	"fsnewtop/transport"
)

// The wire-level vocabulary is the transport plane's; the aliases keep
// netsim-local call sites (and two decades of test code) reading
// naturally while guaranteeing the types are interchangeable.
type (
	// Addr identifies a network endpoint (one node-resident process).
	Addr = transport.Addr
	// Message is the unit of delivery.
	Message = transport.Message
	// Handler receives delivered messages on the delivering shard's
	// dispatcher goroutine.
	Handler = transport.Handler
	// Profile describes one direction of a link.
	Profile = transport.Profile
	// LatencyModel produces per-message propagation delays.
	LatencyModel = transport.LatencyModel
	// Fixed is a constant-delay latency model.
	Fixed = transport.Fixed
	// Uniform draws delays uniformly from [Min, Max].
	Uniform = transport.Uniform
	// Normal draws delays from a normal distribution truncated at zero.
	Normal = transport.Normal
	// Stats aggregates network-wide counters.
	Stats = transport.Stats
)

// ErrUnknownAddr is returned when sending to or from an unregistered
// address. It wraps transport.ErrUnknownAddr.
var ErrUnknownAddr = fmt.Errorf("netsim: %w", transport.ErrUnknownAddr)

// ErrClosed is returned when sending on a closed network. It wraps
// transport.ErrClosed.
var ErrClosed = fmt.Errorf("netsim: %w", transport.ErrClosed)

// Network implements the full transport plane, fault injection and
// accounting included.
var (
	_ transport.Transport     = (*Network)(nil)
	_ transport.FaultInjector = (*Network)(nil)
	_ transport.StatsSource   = (*Network)(nil)
)

type linkKey struct{ from, to Addr }

// registry is the immutable control-plane snapshot: handlers, profiles and
// partitions. The send path reads it with one atomic load; mutators
// clone-and-swap under regMu. Control-plane changes (Register, Block, ...)
// are rare next to Sends, so copy-on-write moves all their cost off the
// hot path.
type registry struct {
	handlers map[Addr]Handler
	profiles map[linkKey]Profile
	blocked  map[linkKey]bool
	def      Profile
}

func (r *registry) clone() *registry {
	nr := &registry{
		handlers: make(map[Addr]Handler, len(r.handlers)),
		profiles: make(map[linkKey]Profile, len(r.profiles)),
		blocked:  make(map[linkKey]bool, len(r.blocked)),
		def:      r.def,
	}
	for k, v := range r.handlers {
		nr.handlers[k] = v
	}
	for k, v := range r.profiles {
		nr.profiles[k] = v
	}
	for k, v := range r.blocked {
		nr.blocked[k] = v
	}
	return nr
}

// Network is an in-process network. It is safe for concurrent use.
type Network struct {
	clk clock.Clock

	reg   atomic.Pointer[registry]
	regMu sync.Mutex // serializes registry clone-and-swap

	shards  []*shard
	seed    int64
	nshards int

	closed atomic.Bool
}

// Option configures a Network.
type Option func(*Network)

// WithDefaultProfile sets the profile used by links with no override.
func WithDefaultProfile(p Profile) Option {
	return func(n *Network) { n.reg.Load().def = p }
}

// WithSeed seeds the network's private randomness (latency jitter, loss).
// Each dispatcher shard derives its own generator from this seed, so runs
// with the same seed, shard count and per-shard send order are
// reproducible.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.seed = seed }
}

// WithShards fixes the dispatcher shard count. Zero or negative selects
// the default: GOMAXPROCS, or one under a virtual clock, whose single
// driver has no parallelism to shard for (and a count that followed
// GOMAXPROCS would change the schedule). Determinism tests use
// WithShards(1) to force a single total delivery order.
func WithShards(count int) Option {
	return func(n *Network) { n.nshards = count }
}

// New creates a network driven by clk.
func New(clk clock.Clock, opts ...Option) *Network {
	n := &Network{
		clk:  clk,
		seed: 1,
	}
	n.reg.Store(&registry{
		handlers: make(map[Addr]Handler),
		profiles: make(map[linkKey]Profile),
		blocked:  make(map[linkKey]bool),
	})
	for _, o := range opts {
		o(n)
	}
	if n.nshards <= 0 {
		n.nshards = runtime.GOMAXPROCS(0)
		if _, virtual := clk.(*clock.Virtual); virtual {
			n.nshards = 1
		}
	}
	n.shards = make([]*shard, n.nshards)
	for i := range n.shards {
		n.shards[i] = newShard(n, splitmix64(uint64(n.seed)+uint64(i)))
	}
	return n
}

// splitmix64 whitens shard seeds so that shard i and shard i+1 do not
// start their generators on adjacent states.
func splitmix64(x uint64) int64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

// update applies f to a clone of the current registry and publishes it.
func (n *Network) update(f func(*registry)) {
	n.regMu.Lock()
	defer n.regMu.Unlock()
	nr := n.reg.Load().clone()
	f(nr)
	n.reg.Store(nr)
}

// Register attaches a handler at addr. Registering an address twice
// replaces its handler (useful for tests that interpose wiretaps).
func (n *Network) Register(addr Addr, h Handler) {
	n.update(func(r *registry) { r.handlers[addr] = h })
}

// Deregister removes an address. In-flight messages to it are dropped at
// delivery time.
func (n *Network) Deregister(addr Addr) {
	n.update(func(r *registry) { delete(r.handlers, addr) })
}

// SetLinkProfile overrides the profile for both directions between a and b.
func (n *Network) SetLinkProfile(a, b Addr, p Profile) {
	n.update(func(r *registry) {
		r.profiles[linkKey{a, b}] = p
		r.profiles[linkKey{b, a}] = p
	})
}

// SetOneWayProfile overrides the profile for the a→b direction only.
func (n *Network) SetOneWayProfile(a, b Addr, p Profile) {
	n.update(func(r *registry) { r.profiles[linkKey{a, b}] = p })
}

// Block partitions a from b in both directions.
func (n *Network) Block(a, b Addr) {
	n.update(func(r *registry) {
		r.blocked[linkKey{a, b}] = true
		r.blocked[linkKey{b, a}] = true
	})
}

// Unblock heals the partition between a and b.
func (n *Network) Unblock(a, b Addr) {
	n.update(func(r *registry) {
		delete(r.blocked, linkKey{a, b})
		delete(r.blocked, linkKey{b, a})
	})
}

// Partition splits the given addresses into groups: traffic between
// different groups is blocked, traffic within a group is unaffected.
func (n *Network) Partition(groups ...[]Addr) {
	n.update(func(r *registry) {
		for i, g1 := range groups {
			for _, g2 := range groups[i+1:] {
				for _, a := range g1 {
					for _, b := range g2 {
						r.blocked[linkKey{a, b}] = true
						r.blocked[linkKey{b, a}] = true
					}
				}
			}
		}
	})
}

// FramesSent returns how many wire frames were sent. Every message is its
// own frame, so it equals messages sent (Stats().Sent); it stays for
// callers that report frames beside messages, as tcpnet's FramesSent does.
func (n *Network) FramesSent() uint64 { return n.Stats().Sent }

// Stats returns a snapshot of the network counters, merged across shards.
func (n *Network) Stats() Stats {
	var s Stats
	for _, sh := range n.shards {
		s.Sent += sh.sent.Load()
		s.Delivered += sh.delivered.Load()
		s.Dropped += sh.dropped.Load()
		s.Blocked += sh.blocked.Load()
		s.Bytes += sh.bytes.Load()
	}
	return s
}

// shardFor hashes a link direction to its owning shard. All messages of
// one (from, to) direction land on the same shard, which is what lets the
// shard enforce per-link FIFO locally. The hash is FNV-1a, not maphash:
// placement must be a pure function of the address pair so that seeded
// runs shard (and therefore draw randomness and interleave) identically
// across processes — a process-random hash seed would silently break the
// reproducibility WithSeed promises.
func (n *Network) shardFor(key linkKey) *shard {
	if len(n.shards) == 1 {
		return n.shards[0]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key.from); i++ {
		h = (h ^ uint64(key.from[i])) * prime64
	}
	h = (h ^ 0) * prime64 // separator between the two names
	for i := 0; i < len(key.to); i++ {
		h = (h ^ uint64(key.to[i])) * prime64
	}
	return n.shards[h%uint64(len(n.shards))]
}

// Send schedules delivery of a message. It never blocks on delivery; the
// link's dispatcher shard delivers after the profile's delay, preserving
// per-link send order. Sending to an unknown destination is an error, so
// that mis-wired deployments fail loudly rather than silently losing
// protocol traffic. The payload is delivered by reference: the handler is
// handed the very slice Send was (transport.Transport's ownership rule).
func (n *Network) Send(from, to Addr, kind string, payload []byte) error {
	if n.closed.Load() {
		return ErrClosed
	}
	if v, ok := n.clk.(*clock.Virtual); ok {
		// A send from outside the virtual clock's driver holds time still
		// from reading Now until the shard's loop is kicked: the message
		// is then delivered at exactly its deadline.
		v.Busy()
		defer v.Done()
	}
	reg := n.reg.Load()
	if _, ok := reg.handlers[to]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAddr, to)
	}
	key := linkKey{from, to}
	sh := n.shardFor(key)

	sh.sent.Add(1)
	sh.bytes.Add(uint64(len(payload)))
	// Guard the map lookups: most networks never partition links or
	// override profiles, and skipping the hash matters on the hot path.
	if len(reg.blocked) > 0 && reg.blocked[key] {
		sh.blocked.Add(1)
		return nil
	}
	prof := reg.def
	if len(reg.profiles) > 0 {
		if p, ok := reg.profiles[key]; ok {
			prof = p
		}
	}

	now := n.clk.Now().UnixNano()
	sh.mu.Lock()
	if n.closed.Load() {
		sh.mu.Unlock()
		return ErrClosed
	}
	if prof.Loss > 0 && sh.rng.Float64() < prof.Loss {
		sh.mu.Unlock()
		sh.dropped.Add(1)
		return nil
	}
	delay := prof.DelayFor(len(payload), sh.rng)
	wake := sh.scheduleLocked(key, Message{From: from, To: to, Kind: kind, Payload: payload}, now, delay)
	sh.mu.Unlock()
	if wake {
		sh.loop.Kick()
	}
	return nil
}

// Close stops all dispatcher shards. Pending deliveries are abandoned.
func (n *Network) Close() {
	n.closed.Store(true)
	for _, sh := range n.shards {
		sh.stop()
	}
}
