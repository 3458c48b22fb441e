// Package group implements the NewTOP group-communication (GC) service of
// Section 3 of the paper as a deterministic state machine (package sm):
// the full service inventory of Section 1 — unreliable multicast, reliable
// multicast, causal order, symmetric total order, asymmetric total order —
// plus partitionable group membership with a pluggable failure suspector.
//
// The machine form matters: NewTOP's GC "is implemented as a
// single-threaded, deterministic application", which is exactly what lets
// the fail-signal wrapper (internal/core) replicate it. All inputs —
// application requests, peer GC messages, and time ticks — arrive as
// ordered sm.Inputs; all effects are explicit sm.Outputs. No wall-clock
// reads, no map-iteration-order dependence, no randomness.
//
// # Protocols
//
// Reliable multicast: per-sender sequence numbers with out-of-order
// buffering and NACK-driven retransmission (tick-paced). All non-unreliable
// services ride on this intake, so their streams are per-origin gap-free.
//
// Causal order: per-group vector clocks; a message is delivered when it is
// the next from its origin and all causally preceding deliveries have
// happened.
//
// Symmetric total order: the message-intensive protocol the paper uses for
// its measurements ("it orders a message only after the message is
// logically acknowledged by all members"). Messages carry Lamport
// timestamps; a message is delivered once every member's observed clock
// has passed its timestamp, in (timestamp, origin) order. An
// acknowledgement is a promise — "my future messages carry timestamps
// above TS" — and carries the acker's send-sequence watermark so that a
// retransmitted message can never be overtaken (the ack only advances the
// acker's observed clock once the receiver holds all of the acker's data
// up to that watermark).
//
// A promise is sent once: every accepted message is acknowledged to the
// whole group, but the acknowledgement leaves only when (clock, send
// watermark) differs from the one this member last broadcast. Promises
// stay true because the clock is monotone, a repeat is a no-op at every
// receiver (onAck ignores TS <= ackTS), and the delivery condition is
// unchanged, so a standing promise acknowledges as well as a re-sent one;
// the first acknowledgement for a new clock value still leaves in the
// accept's own step. Two things an ack per accept did by accident are
// explicit: tickPromise repairs a lost promise or a lost tail message
// when the head of the order has stayed blocked for resendAfter (the
// blocked member re-announces its promise and asks the laggard for its),
// and every accept, of any service, re-evaluates the order in its own
// step. An own data send is not a promise: the ack after it is what
// carries the new watermark to a member that lost the data. DESIGN.md,
// "Ordering plane", has the argument.
//
// Asymmetric total order: a fixed sequencer (the least member of the
// current view) assigns global sequence numbers; members deliver in
// assignment order. On a view change the new least member re-sequences
// undelivered traffic.
//
// Membership: a coordinator-driven propose/ack/install protocol.
// Suspicions come from the configured suspector — ping/timeout in crash
// NewTOP (which can be *false* and split the group: the Section 1
// behaviour), or verified fail-signals in FS-NewTOP (which cannot).
// View installation is preceded by a flush: members report their pending
// totally-ordered messages in their acks, the coordinator unions them, and
// every surviving member delivers the flush set in timestamp order before
// installing the new view, so survivors agree on the old view's tail.
// Simplification relative to an unspecified detail of NewTOP: view-ack
// flush reports carry full message payloads rather than running a separate
// state-transfer round; DESIGN.md records this.
package group
