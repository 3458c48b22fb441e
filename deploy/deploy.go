// Package deploy is the multi-process orchestration plane: it turns the
// repository's single-process deployments (every member sharing one Go
// runtime, even over real TCP sockets) into a real distributed system —
// one OS process per member, no shared memory, with a controller process
// supervising the fleet.
//
// # Roles
//
// A controller (Run) spawns one worker process per member, assembles the
// placement manifest from the endpoints the workers report, and drives
// them through the run lifecycle over a line-delimited JSON control
// protocol on each worker's stdin/stdout:
//
//	hello → configure → ready → join → joined → run → progress* → done → shutdown
//
// A worker (RunWorker, reached via `fsbench -worker`) binds an ephemeral
// TCP port, reports it, seeds its private address book from the manifest
// (and optionally $TCPNET_PEERS), brings up its single member via
// cluster.NewSolo, joins the group with the full roster, and runs the
// workload, streaming progress so the controller's stall watchdog has a
// pulse to monitor.
//
// RunSpec, Workload and WorkerStats are the one description, loop and
// measurement record of the paper's workload: a worker runs the loop for
// its member, bench.Run runs it once per member in process, over members
// cluster.New brought up from the same RunSpec.
//
// # Supervision
//
// The controller never hangs on a sick fleet: every phase has a timeout,
// the run phase has a round-progress stall watchdog
// (the PR 4 discipline, one layer up), and a worker that dies mid-run
// surfaces as a structured *WorkerError naming the member, its exit
// status, its last control message, and the trace dumps collected from
// the survivors. Workers are killed with the controller (PDEATHSIG on
// Linux) and additionally exit when their control stdin closes, so no
// orchestration failure mode leaks orphan processes.
package deploy

import (
	"time"

	"fsnewtop/cluster"
)

// RunSpec describes one run of the paper's workload (Section 4) and the
// member stacks it runs on: every lane deploys what Options returns and
// drives it with a Workload. The controller ships it to every worker in
// the configure message; durations travel as nanoseconds (Go's JSON
// encoding of time.Duration), fine since both ends are this package.
type RunSpec struct {
	// Group is the group every member joins and multicasts into.
	Group string `json:"group"`
	// MsgsPerMember is how many messages each member multicasts.
	MsgsPerMember int `json:"msgs_per_member"`
	// MsgSize is the payload size in bytes (minimum 3: the sequence
	// number must fit).
	MsgSize int `json:"msg_size"`
	// SendInterval is the regular inter-send gap at each member.
	SendInterval time.Duration `json:"send_interval"`
	// Delta is δ for each member's fail-signal pair.
	Delta time.Duration `json:"delta"`
	// CrashTolerant deploys the crash-tolerant NewTOP baseline instead of
	// FS-NewTOP, with suspicion kept an hour away: the paper's failure-free
	// runs ("false failure suspicions in NewTOP runs were eliminated").
	CrashTolerant bool `json:"crash_tolerant,omitempty"`
	// RSA signs FS outputs with MD5-and-RSA (the paper's scheme) instead
	// of HMAC.
	RSA bool `json:"rsa,omitempty"`
	// TraceDir is where trace dumps are written (stall collection and
	// SIGQUIT). Empty selects the OS temp directory.
	TraceDir string `json:"trace_dir,omitempty"`
}

// FillDefaults completes the spec for a group of the given size. This is
// the one copy of the figure lanes' defaults.
func (s *RunSpec) FillDefaults(members int) {
	if s.Group == "" {
		s.Group = "bench"
	}
	if s.MsgsPerMember == 0 {
		s.MsgsPerMember = 50
	}
	if s.MsgSize < 3 {
		s.MsgSize = 3
	}
	if s.SendInterval == 0 {
		s.SendInterval = 2 * time.Millisecond
	}
	if s.Delta == 0 {
		// δ is generous by default: the compare deadline 2δ+κπ+στ is a
		// timeout, not a wait, so failure-free runs pay nothing for it,
		// while a small δ on a loaded host lets scheduling noise masquerade
		// as replica failure — the A3/A4 caveat from the paper's concluding
		// remarks. It scales with group size because one host multiplexes
		// 2n replica processes: at 25+ members a fixed 1 s deadline made
		// every pair fail-signal under scheduler pressure.
		s.Delta = time.Duration(members) * 500 * time.Millisecond
		if s.Delta < time.Second {
			s.Delta = time.Second
		}
	}
}

// StallWindow is the default round-progress watchdog window for pairs
// running at delta: 2δ — two full compare deadlines at the follower, so a
// stall verdict can never race a live deadline that would unwedge the run
// by fail-signalling — with a 5 s floor that keeps small-δ runs on a
// loaded host from declaring scheduler hiccups to be wedges.
func StallWindow(delta time.Duration) time.Duration {
	if w := 2 * delta; w > 5*time.Second {
		return w
	}
	return 5 * time.Second
}

// Options maps the spec onto the cluster facade: the member-stack options
// every lane passes to cluster.New or cluster.NewSolo, next to its own
// transport, clock and trace wiring.
func (s RunSpec) Options() []cluster.Option {
	opts := []cluster.Option{
		cluster.WithDelta(s.Delta),
	}
	if s.CrashTolerant {
		opts = append(opts, cluster.WithCrashTolerance(), cluster.WithPingSuspector(0, time.Hour))
	}
	if s.RSA {
		opts = append(opts, cluster.WithRSA())
	}
	return opts
}

// WorkerStats is one member's measurements from its Workload: shipped in a
// worker's done message or returned in process, folded by bench.
type WorkerStats struct {
	// Member is the member's name.
	Member string `json:"member"`
	// Delivered counts deliveries observed at this member when the stats
	// were snapshotted; Expected is members × msgs-per-member.
	Delivered int `json:"delivered"`
	Expected  int `json:"expected"`
	// Window is run start → the instant Expected was reached at this
	// member (the per-member throughput denominator); zero when the run
	// ended short of it.
	Window time.Duration `json:"window"`
	// LatencyNS are the raw sender-observed ordering latency samples
	// (multicast → own delivery), in nanoseconds. Raw samples — not a
	// pre-digested summary — so the aggregator can merge the cluster-wide
	// distribution and compute exact percentiles.
	LatencyNS []int64 `json:"latency_ns,omitempty"`
	// SendError is the first multicast error, which ended this member's
	// sends early; empty when every send was accepted.
	SendError string `json:"send_error,omitempty"`
	// Order is the member's delivery log, for the delivery-equivalence
	// check. It stays in the process that recorded it.
	Order []OrderEntry `json:"-"`
	// NetMessages/NetBytes and SigChecks are the worker process's
	// transport and signature-check counters. In process the members
	// share one transport and fabric, and bench.Run reads the cluster's.
	NetMessages uint64 `json:"net_messages"`
	NetBytes    uint64 `json:"net_bytes"`
	SigChecks   uint64 `json:"sig_checks"`
}

// OrderEntry is one delivery in a member's order log.
type OrderEntry struct {
	Origin string
	Seq    int
}
