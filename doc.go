// Package fsnewtop is a from-scratch Go reproduction of "From Crash
// Tolerance to Authenticated Byzantine Tolerance: A Structured Approach,
// the Cost and Benefits" (Mpoeleng, Ezhilchelvan, Speirs — DSN 2003).
//
// The public deployment surface is three packages: cluster (a one-import
// functional-options facade yielding joined, FS-wrapped members),
// transport (the pluggable message plane every protocol layer is written
// against, with netsim and tcpnet backends), and bench (the experiment
// harness regenerating the paper's figures on either substrate).
//
// Underneath, the repository implements the complete system stack the
// paper describes:
//
//   - internal/core — the fail-signal process construction (the primary
//     contribution): deterministic state machines replicated as
//     self-checking leader/follower pairs whose only failure behaviour is
//     emitting a uniquely attributable, double-signed fail-signal;
//   - internal/group — the NewTOP group-communication service: unreliable,
//     reliable, causal, symmetric-total-order and asymmetric-total-order
//     multicast with partitionable membership and pluggable suspectors;
//   - internal/newtop — the crash-tolerant NewTOP middleware (the paper's
//     baseline), assembled over a CORBA-like ORB substrate (internal/orb);
//   - internal/fsnewtop — FS-NewTOP: the same GC machine wrapped into
//     fail-signal pairs, its GC-bound calls re-issued into the pair where
//     the paper's ORB interceptor caught them, with a suspector that turns
//     verified fail-signals into suspicions that cannot be false;
//   - vote — public 2f+1 application replication with client-side
//     majority voting (the paper's Figure 4 deployment), composing over
//     the cluster API.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for paper-vs-measured results. The
// benchmarks in bench_test.go regenerate each figure's series; cmd/fsbench
// prints full tables.
package fsnewtop
