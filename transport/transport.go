// Package transport is the deployment-facing transport plane: the
// abstraction every protocol layer in this repository sends and receives
// through, and the seam at which a deployment chooses its network.
//
// The paper's prototype ran on a real 100 Mb switched LAN; this
// reproduction historically ran only over the in-process simulator
// (package transport/netsim). The transport interface makes the substrate
// pluggable in the Eternal interceptor spirit [NMM99, NMM00] the paper
// adopts: protocol code (orb, core, group, newtop, fsnewtop) is written
// against Transport and cannot tell a simulated fabric from real TCP
// sockets (package transport/tcpnet).
//
// # Core contract
//
// A Transport delivers messages between registered addresses:
//
//   - Send never blocks on delivery and preserves per-link (From,To) FIFO
//     order — the Order protocol in internal/core depends on the
//     leader→follower link never reordering.
//   - Handlers run on transport-owned goroutines: they must be quick and
//     must never block on the network (sending more messages is fine).
//   - Payload bytes are immutable once they enter the plane: Send takes
//     ownership of the slice it is given, a delivered payload is the
//     handler's to keep, and nobody on either side writes to one — a
//     simulated fabric hands one slice to every destination, and every
//     decoder above aliases what it is handed (DESIGN.md, "Data path: who
//     owns a byte").
//   - Sending to an address that cannot be resolved fails loudly with
//     ErrUnknownAddr, so mis-wired deployments do not silently lose
//     protocol traffic.
//   - After Close, Send fails with ErrClosed; in-flight deliveries may be
//     abandoned.
//
// The conformance suite in transport/transporttest pins these semantics
// down and runs against every backend.
//
// # Capabilities
//
// Fault injection and traffic accounting are optional capabilities, not
// part of Transport: a real network cannot fake partitions, and forcing it
// to stub them would let tests silently no-op. Deployments discover them
// by interface assertion (or the Shape/Block/Partition helpers, which
// report whether the backend complied).
package transport

import "errors"

// Addr identifies a transport endpoint (one node-resident process).
type Addr string

// Message is the unit of delivery. Payload belongs to the handler it is
// delivered to for as long as the handler — or anything decoded from it —
// keeps a reference: a backend never reuses or rewrites the bytes behind a
// delivered payload. It is read-only all the same: over a backend that
// passes payloads by reference, the sender's other destinations hold the
// same bytes.
type Message struct {
	From    Addr
	To      Addr
	Kind    string // protocol-defined tag, e.g. "fs.receiveNew"
	Payload []byte
}

// Handler receives delivered messages. Handlers run on transport-owned
// goroutines: they must be quick and must not block on the network.
type Handler func(Message)

// Transport is the pluggable message plane. Implementations must be safe
// for concurrent use.
type Transport interface {
	// Register attaches a handler at addr. Registering an address twice
	// replaces its handler (tests interpose wiretaps this way).
	Register(addr Addr, h Handler)
	// Deregister removes an address. In-flight messages to it are dropped
	// at delivery time; subsequent Sends to it fail with ErrUnknownAddr.
	Deregister(addr Addr)
	// Send schedules delivery of a message. It never blocks on delivery
	// and preserves per-link send order. Send takes ownership of payload:
	// the backend queues or delivers the slice itself, not a copy, so the
	// caller must not write to it again — handing the same slice to
	// several Sends is fine, reusing it as a scratch buffer is not.
	Send(from, to Addr, kind string, payload []byte) error
	// Close shuts the transport down. Pending deliveries may be abandoned.
	Close()
}

// Error taxonomy. Every backend and every layer above wraps these
// sentinels, so errors.Is works across the whole stack: an orb invocation
// timeout, a netsim closed-network error and a tcpnet closed-socket error
// all answer to the same identities.
var (
	// ErrUnknownAddr reports a send to or from an unresolvable address.
	ErrUnknownAddr = errors.New("transport: unknown address")
	// ErrClosed reports use of a closed transport (or a layer above it).
	ErrClosed = errors.New("transport: closed")
	// ErrTimeout reports a bounded wait that expired.
	ErrTimeout = errors.New("transport: timed out")
)

// FaultInjector is the optional link-fault capability: latency/bandwidth
// shaping, loss, and partitions. Simulated backends implement it; real
// networks typically do not.
type FaultInjector interface {
	// SetLinkProfile overrides the profile of both directions between a
	// and b.
	SetLinkProfile(a, b Addr, p Profile)
	// SetOneWayProfile overrides the profile of the a→b direction only.
	SetOneWayProfile(a, b Addr, p Profile)
	// Block partitions a from b in both directions.
	Block(a, b Addr)
	// Unblock heals the partition between a and b.
	Unblock(a, b Addr)
	// Partition splits the addresses into groups: traffic between
	// different groups is blocked, traffic within a group is unaffected.
	Partition(groups ...[]Addr)
}

// StatsSource is the optional traffic-accounting capability.
type StatsSource interface {
	// Stats returns a snapshot of transport-wide counters.
	Stats() Stats
}

// Stats aggregates transport-wide counters.
type Stats struct {
	Sent      uint64 // messages handed to Send
	Delivered uint64 // messages delivered to handlers
	Dropped   uint64 // lost (loss model, or undeliverable on a real net)
	Blocked   uint64 // suppressed by a partition
	Bytes     uint64 // payload bytes sent
}

// Shape applies a link profile if t supports fault injection, reporting
// whether it did. Callers that need shaping for correctness must check the
// result; callers using it only to model load may ignore it.
func Shape(t Transport, a, b Addr, p Profile) bool {
	fi, ok := t.(FaultInjector)
	if ok {
		fi.SetLinkProfile(a, b, p)
	}
	return ok
}

// Block partitions a from b if t supports fault injection, reporting
// whether it did.
func Block(t Transport, a, b Addr) bool {
	fi, ok := t.(FaultInjector)
	if ok {
		fi.Block(a, b)
	}
	return ok
}

// Unblock heals a partition if t supports fault injection, reporting
// whether it did.
func Unblock(t Transport, a, b Addr) bool {
	fi, ok := t.(FaultInjector)
	if ok {
		fi.Unblock(a, b)
	}
	return ok
}

// GetStats returns t's counters if it supports accounting.
func GetStats(t Transport) (Stats, bool) {
	ss, ok := t.(StatsSource)
	if !ok {
		return Stats{}, false
	}
	return ss.Stats(), true
}
