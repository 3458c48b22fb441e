// Package bench is the experiment harness for the paper's evaluation
// (Section 4): it deploys NewTOP or FS-NewTOP through the cluster facade —
// over the seeded netsim simulator by default, real TCP sockets with
// Options.Transport = "tcp", one OS process per member with "tcp-procs" —
// drives the paper's workload — every member multicasts a fixed number of
// messages for symmetric total ordering at a regular interval — and
// measures ordering latency and throughput. Every lane brings its members
// up through cluster.New (cluster.NewSolo in a worker process) and drives
// each with a deploy.Workload, so the lanes differ in substrate only.
//
// Three experiment drivers regenerate the figures:
//
//   - Fig6: ordering latency vs group size (2..10), small messages;
//   - Fig7: throughput vs group size (2..15);
//   - Fig8: throughput vs message size (10 members, 0k..10k).
//
// Absolute numbers are µs-scale (in-process Go vs 2003 Java+CORBA
// hardware); EXPERIMENTS.md records the shape comparisons that are the
// reproduction target.
package bench

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"fsnewtop/cluster"
	"fsnewtop/deploy"
	"fsnewtop/internal/clock"
	"fsnewtop/internal/metrics"
	"fsnewtop/internal/trace"
	"fsnewtop/transport"
	"fsnewtop/transport/netsim"
	"fsnewtop/transport/tcpnet"
)

// System selects the middleware under test.
type System int

const (
	// SystemNewTOP is the crash-tolerant baseline.
	SystemNewTOP System = iota + 1
	// SystemFSNewTOP is the Byzantine-tolerant extension.
	SystemFSNewTOP
)

// String implements fmt.Stringer.
func (s System) String() string {
	switch s {
	case SystemNewTOP:
		return "NewTOP"
	case SystemFSNewTOP:
		return "FS-NewTOP"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Options parameterises one experiment run.
type Options struct {
	// System selects the middleware.
	System System
	// Members is the group size (the paper sweeps 2..15).
	Members int
	// MsgsPerMember is the paper's 1000 (defaults lower for CI speed).
	MsgsPerMember int
	// MsgSize is the payload size in bytes (paper: 3 bytes in Fig6/7,
	// 0k..10k in Fig8). Minimum 3 (the sequence number must fit).
	MsgSize int
	// SendInterval is the regular inter-send gap at each member.
	SendInterval time.Duration
	// Delta is δ for FS pairs (0 = Members × 0.5 s, 1 s floor; see
	// deploy.RunSpec.FillDefaults).
	Delta time.Duration
	// NetLatency is the inter-member async network latency.
	NetLatency time.Duration
	// Bandwidth is the async link bandwidth in bytes/second (0 =
	// infinite); it converts message size into delay for Fig8.
	Bandwidth int64
	// RSA selects MD5-with-RSA signing for FS pairs (the paper's scheme)
	// instead of fast HMAC.
	RSA bool
	// Transport selects the substrate: "netsim" (default, the seeded
	// in-process simulator), "tcp" (loopback sockets via transport/tcpnet,
	// one shared Go runtime) or "tcp-procs" (the same sockets, every member
	// in its own OS process: this binary re-executed with -worker).
	// Latency/bandwidth/seed only shape the simulator. Results are recorded
	// under their substrate so trajectories never silently mix.
	Transport string
	// Seed seeds netsim randomness.
	Seed int64
	// Virtual runs the experiment on an auto-advancing clock.Virtual owned
	// by the run — send pacing, latency stamps, throughput windows, the run
	// timeout, the stall watchdog and every protocol timer in the deployed
	// stacks: protocol time jumps event-to-event instead of sleeping, so
	// simulated protocol-hours cost only the computation. Requires the
	// netsim transport — virtual time cannot pace real sockets.
	Virtual bool
	// OrderCheck verifies delivery equivalence at the end of the run: all
	// members must have delivered the identical (origin, seq) sequence. The
	// soak lanes turn it on; the mismatch, if any, lands in
	// Result.OrderMismatch. In-process lanes only.
	OrderCheck bool
	// Timeout bounds the whole run (in-process lanes; a multi-process run
	// is bounded by the controller's phase timeouts and StallAfter).
	Timeout time.Duration
	// StallAfter is the round-progress watchdog window: a run that makes
	// no delivery at any member for this long while short of Expected is
	// declared wedged and fails at once — *ErrStalled with per-node counts
	// and a trace dump in process, *deploy.ErrStalled across processes —
	// instead of burning the rest of Timeout. Zero selects
	// deploy.StallWindow(Delta); negative disables the in-process watchdog
	// (the controller's always runs, at the default window).
	StallAfter time.Duration
	// TraceDir is where stall dumps are written. Empty selects the OS
	// temp directory.
	TraceDir string
	// NoStallDump suppresses writing the trace dump when an in-process
	// stall is declared (the structured error is still returned).
	NoStallDump bool
}

// fillDefaults completes the options and returns the run spec they
// describe — what every lane deploys and drives.
func (o *Options) fillDefaults() deploy.RunSpec {
	if o.Members == 0 {
		o.Members = 3
	}
	spec := deploy.RunSpec{
		MsgsPerMember: o.MsgsPerMember,
		MsgSize:       o.MsgSize,
		SendInterval:  o.SendInterval,
		Delta:         o.Delta,
		CrashTolerant: o.System == SystemNewTOP,
		RSA:           o.RSA,
		TraceDir:      o.TraceDir,
	}
	spec.FillDefaults(o.Members)
	o.MsgsPerMember, o.MsgSize = spec.MsgsPerMember, spec.MsgSize
	if o.NetLatency == 0 {
		o.NetLatency = 200 * time.Microsecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Timeout == 0 {
		o.Timeout = 2 * time.Minute
	}
	if o.Transport == "" {
		o.Transport = TransportNetsim
	}
	if o.StallAfter == 0 {
		o.StallAfter = deploy.StallWindow(spec.Delta)
	}
	return spec
}

// lanLatency is the pair sync-link latency on the simulator (the A2 LAN;
// it must stay well below δ).
const lanLatency = 50 * time.Microsecond

// Transport substrate names, as recorded in results and series files.
const (
	TransportNetsim   = "netsim"
	TransportTCP      = "tcp"
	TransportTCPProcs = "tcp-procs"
)

// ErrRefused marks a combination of options no lane can run: nothing was
// deployed or measured (fsbench exits 2 on it, as on any usage error).
var ErrRefused = errors.New("bench: refused")

// newTransport builds the in-process substrate the options select, driven
// by clk.
func newTransport(opts Options, clk clock.Clock) (transport.Transport, error) {
	switch opts.Transport {
	case TransportNetsim:
		return netsim.New(clk,
			netsim.WithSeed(opts.Seed),
			netsim.WithDefaultProfile(transport.Profile{
				Latency:        transport.Fixed(opts.NetLatency),
				BytesPerSecond: opts.Bandwidth,
			}),
		), nil
	case TransportTCP:
		return tcpnet.New(tcpnet.Config{})
	default:
		return nil, fmt.Errorf("%w: unknown transport %q (want %q, %q or %q)",
			ErrRefused, opts.Transport, TransportNetsim, TransportTCP, TransportTCPProcs)
	}
}

// Result is one experiment run's measurements.
type Result struct {
	System        System
	Transport     string // substrate the run used ("netsim", "tcp" or "tcp-procs")
	Members       int
	MsgSize       int
	MsgsPerMember int
	// Latency summarises sender-observed ordering latency: multicast to
	// own delivery of the same message.
	Latency metrics.Summary
	// Throughput is ordered messages per second observed at a member
	// (total ordered messages / time to order them), averaged over
	// members — the Fig7/Fig8 y-axis. Time is the run clock's: under
	// Options.Virtual this is msgs per *protocol* second.
	Throughput float64
	// Virtual records whether the run used an auto-advancing clock.
	Virtual bool
	// Elapsed is the full-run time on the run's clock: wall time normally,
	// simulated protocol time under Options.Virtual. On "tcp-procs" it
	// spans the whole orchestration, spawn to shutdown.
	Elapsed time.Duration
	// WallElapsed is always real wall time; Elapsed/WallElapsed is the
	// virtual run's speedup.
	WallElapsed time.Duration
	// OrderMismatch describes the first delivery-equivalence violation
	// found (Options.OrderCheck); empty when the oracle is green or off.
	OrderMismatch string
	// Delivered counts total deliveries across members; Expected is
	// Members² × MsgsPerMember.
	Delivered, Expected int
	// NetMessages and NetBytes are fabric-level traffic totals.
	NetMessages, NetBytes uint64
	// SigCacheHits and SigCacheMisses are the FS deployment's
	// verification counters (zero for NewTOP, which signs nothing): misses
	// are real signature checks, hits the ones a memo answered — zero,
	// since no node memoises.
	SigCacheHits, SigCacheMisses uint64
}

// Run executes one experiment: bring the members up through the cluster
// facade, join them into one group, drive each with a deploy.Workload,
// fold the per-member measurements.
func Run(opts Options) (Result, error) {
	res, _, err := run(opts)
	return res, err
}

// run is Run, also handing back the per-member measurements it folded.
func run(opts Options) (Result, []deploy.WorkerStats, error) {
	spec := opts.fillDefaults()
	switch {
	case opts.System != SystemNewTOP && opts.System != SystemFSNewTOP:
		return Result{}, nil, fmt.Errorf("%w: unknown system %v", ErrRefused, opts.System)
	case opts.Members < 2:
		return Result{}, nil, fmt.Errorf("%w: Members %d: a group needs at least two members (on %q: two worker processes)",
			ErrRefused, opts.Members, TransportTCPProcs)
	case opts.Virtual && opts.Transport != TransportNetsim:
		return Result{}, nil, fmt.Errorf("%w: Virtual requires Transport %q (got %q): virtual time cannot pace real sockets, nor gate members in other OS processes",
			ErrRefused, TransportNetsim, opts.Transport)
	}
	if opts.Transport == TransportTCPProcs {
		return runProcs(opts, spec)
	}

	wall := clock.NewReal()
	var clk clock.Clock = wall
	copts := spec.Options()
	if opts.Virtual {
		vt := clock.NewVirtual()
		defer vt.Stop()
		clk = vt
		copts = append(copts, cluster.WithVirtualTime(vt))
	}
	tr, err := newTransport(opts, clk)
	if err != nil {
		return Result{}, nil, err
	}
	defer tr.Close()
	reg := trace.NewRegistry(0, clk.Now)
	activeTrace.Store(reg)

	names := make([]string, opts.Members)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
	}
	copts = append(copts,
		cluster.WithTransport(tr),
		cluster.WithMembers(names...),
		cluster.WithTrace(reg),
		// On the simulator this shapes the pair's A2 sync link; a real
		// network ignores it and the wire's own latency applies.
		cluster.WithSyncLinkProfile(transport.Profile{Latency: transport.Fixed(lanLatency)}),
	)

	// Each member's workload takes its deliveries until it ends, and the
	// last to end reads the traffic counters. One observer pass on the
	// run's clock polls every workload (clock.Observe): on a virtual clock
	// at the end of every instant, so deliveries, the run's end and the
	// counters are taken at their instant; on the wall clock every 2 ms.
	// Once stop is closed, the pass ends the workloads left and stops.
	var (
		cl        *cluster.Cluster
		start     time.Time
		loads     = make([]*deploy.Workload, len(names))
		stats     = make([]deploy.WorkerStats, len(names))
		delivered = make([]atomic.Int64, len(names))
		ended     = make(chan int, len(names))
		stop      = make(chan struct{})
		stalled   = make(chan struct{})
		timeout   clock.Timer

		endAt    time.Time
		counters transport.Stats // zero on a transport that counts nothing
	)
	done, left := make([]bool, len(names)), len(names)
	observe := func(now time.Time) bool {
		stopped := false
		select {
		case <-stop:
			stopped = true
		default:
		}
		for i, w := range loads {
			if done[i] || !(w.Poll(&delivered[i]) || stopped) {
				continue
			}
			done[i], stats[i] = true, w.Stats()
			if left--; left == 0 {
				endAt = now
				counters, _ = cl.Stats()
			}
			ended <- i
		}
		return left > 0
	}
	// Round-progress watchdog: the protocol should never go StallAfter
	// without a delivery while work is outstanding. When it does, snapshot
	// everything and fail fast with a diagnosis instead of letting the
	// timeout swallow the evidence.
	progress := func() int {
		total := 0
		for i := range delivered {
			total += int(delivered[i].Load())
		}
		return total
	}

	// Bring-up, the joins, the start of every member's workload and of the
	// run's watchdogs are one callback on the run's clock: on a virtual
	// clock they share one instant, at which every workload's first send
	// is due.
	up := make(chan error, 1)
	wallStart := wall.Now()
	clk.AfterFunc(0, func() {
		var err error
		if cl, err = cluster.New(copts...); err == nil {
			err = cl.JoinAll(spec.Group)
		}
		if err != nil {
			up <- err
			return
		}
		start = clk.Now()
		for i, name := range names {
			loads[i] = deploy.StartWorkload(clk, start, cl.Member(name), spec, opts.Members, stop)
		}
		clock.Observe(clk, observe)
		if opts.StallAfter > 0 {
			stallMonitor(clk, progress, opts.Members*opts.Members*opts.MsgsPerMember, opts.StallAfter, stop, stalled)
		}
		timeout = clk.NewTimer(opts.Timeout)
		up <- nil
	})
	err = <-up
	if cl != nil {
		defer cl.Close()
	}
	if err != nil {
		return Result{}, nil, err
	}
	defer timeout.Stop()

	var runErr error
	returned := 0
	for returned < len(names) && runErr == nil {
		select {
		case i := <-ended:
			returned++
			if stats[i].SendError != "" {
				runErr = fmt.Errorf("bench: %v/%s run (%d members): %s: %s",
					opts.System, opts.Transport, opts.Members, names[i], stats[i].SendError)
			}
		case <-stalled:
			st := &ErrStalled{
				System:    opts.System,
				Transport: opts.Transport,
				Members:   opts.Members,
				Expected:  opts.Members * opts.Members * opts.MsgsPerMember,
				Quiet:     opts.StallAfter,
			}
			for i, name := range names {
				n := int(delivered[i].Load())
				st.Delivered += n
				st.PerMember = append(st.PerMember, MemberProgress{Name: name, Delivered: n, PairFailed: cl.PairFailed(name)})
			}
			if !opts.NoStallDump {
				if path, err := reg.Dump(opts.TraceDir, "stall"); err == nil {
					st.DumpPath = path
				}
			}
			runErr = st
		case <-timeout.C():
			failed := ""
			for _, name := range names {
				if cl.PairFailed(name) {
					failed += " " + name
				}
			}
			runErr = fmt.Errorf("bench: %v run (%d members) timed out after %v: delivered %d of %d (failed pairs:%s)",
				opts.System, opts.Members, opts.Timeout, progress(), opts.Members*opts.Members*opts.MsgsPerMember, failed)
		}
	}
	close(stop)
	for ; returned < len(names); returned++ {
		<-ended
	}

	res := aggregate(opts, stats)
	res.Virtual = opts.Virtual
	res.Elapsed = endAt.Sub(start)
	res.WallElapsed = wall.Since(wallStart)
	if opts.OrderCheck {
		res.OrderMismatch = checkOrder(stats)
	}
	res.NetMessages, res.NetBytes = counters.Sent, counters.Bytes
	res.SigCacheHits, res.SigCacheMisses = cl.SigCacheStats()
	return res, stats, runErr
}

// runProcs is the "tcp-procs" lane: the same spec, brought up and driven
// by the deploy plane with every member in its own OS process. On error
// the Result still carries whatever was aggregated before the failure —
// usually nothing, since workers report stats only at completion.
func runProcs(opts Options, spec deploy.RunSpec) (Result, []deploy.WorkerStats, error) {
	dres, err := deploy.Run(deploy.Config{Workers: opts.Members, Spec: spec, StallAfter: max(opts.StallAfter, 0)})
	err = markRefused(err)
	res := aggregate(opts, dres.Stats)
	res.Elapsed = dres.Elapsed
	return res, dres.Stats, err
}

// markRefused turns a worker's report that cluster.NewSolo refused the
// spec (RSA: its keys do not span processes) into ErrRefused —
// nothing ran. The refusal crossed a process boundary, so its text is all
// there is to recognise it by; any other configure failure stays a failure.
func markRefused(err error) error {
	var we *deploy.WorkerError
	if errors.As(err, &we) && strings.Contains(we.Message, "solo bring-up refused") {
		return fmt.Errorf("%w: Transport %q: worker %s: %s", ErrRefused, TransportTCPProcs, we.Member, we.Message)
	}
	return err
}

// aggregate folds per-member measurements into one Result: delivery
// counts, traffic and crypto counters sum; raw latency samples merge into
// one cluster-wide distribution (exact percentiles, not an average of
// per-member percentiles); throughput averages each member's
// expected-per-member over its own completion window.
func aggregate(opts Options, stats []deploy.WorkerStats) Result {
	expectedPerMember := opts.Members * opts.MsgsPerMember
	res := Result{
		System:        opts.System,
		Transport:     opts.Transport,
		Members:       opts.Members,
		MsgSize:       opts.MsgSize,
		MsgsPerMember: opts.MsgsPerMember,
		Expected:      opts.Members * expectedPerMember,
	}
	var lat metrics.Histogram
	var tput float64
	counted := 0
	for _, ws := range stats {
		res.Delivered += ws.Delivered
		for _, ns := range ws.LatencyNS {
			lat.Record(time.Duration(ns))
		}
		if ws.Window > 0 {
			tput += float64(expectedPerMember) / ws.Window.Seconds()
			counted++
		}
		res.NetMessages += ws.NetMessages
		res.NetBytes += ws.NetBytes
		res.SigCacheHits += ws.SigCacheHits
		res.SigCacheMisses += ws.SigCacheMisses
	}
	res.Latency = lat.Snapshot()
	if counted > 0 {
		res.Throughput = tput / float64(counted)
	}
	return res
}

// checkOrder verifies delivery equivalence across the members' recorded
// logs: every member must have delivered the identical (origin, seq)
// sequence. It returns a description of the first divergence, or "".
func checkOrder(stats []deploy.WorkerStats) string {
	if len(stats) < 2 {
		return ""
	}
	ref := stats[0]
	for _, ws := range stats[1:] {
		n := len(ref.Order)
		if len(ws.Order) < n {
			n = len(ws.Order)
		}
		for i := 0; i < n; i++ {
			if ref.Order[i] != ws.Order[i] {
				return fmt.Sprintf("delivery order diverges at index %d: %s saw %s#%d, %s saw %s#%d",
					i, ref.Member, ref.Order[i].Origin, ref.Order[i].Seq,
					ws.Member, ws.Order[i].Origin, ws.Order[i].Seq)
			}
		}
	}
	return ""
}
