// Command fsbench regenerates the paper's evaluation figures (Section 4):
//
//	fsbench -exp fig6            # ordering latency vs group size (2..10)
//	fsbench -exp fig7            # throughput vs group size (2..15)
//	fsbench -exp fig8            # throughput vs message size (10 members)
//	fsbench -exp fig8 -procs 10  # same sweep, one OS process per member
//	fsbench -worker              # internal: deploy-plane worker process
//	fsbench -exp soak            # large-group scheduler soak (40 members)
//	fsbench -exp soak -virtual   # time-accelerated soak: simulated protocol-hours in wall seconds
//	fsbench -exp wedge           # repeated FS/tcp wedge repro (fig8 shape)
//	fsbench -exp chaos -seed 7   # seeded fault-schedule fuzz run (oracles)
//	fsbench -exp chaos -virtual  # same oracles on the virtual timeline; red seeds auto-shrink
//	fsbench -exp churn -seed 7   # sustained-churn sweep (auto-heal, recovery percentiles)
//	fsbench -exp all -msgs 1000  # the paper's full message count
//
// -cpuprofile FILE and -memprofile FILE write runtime/pprof profiles of the
// whole invocation (every exit path flushes them), for go tool pprof.
//
// -virtual moves a lane onto the virtual clock, which runs every node
// loop of the stack on its one driver and jumps straight to the next
// deadline once nothing is due now, so a simulated protocol-hour costs
// only the wall time of the computation in it. It requires the netsim
// substrate (the library refuses tcp and -procs: the driver cannot run
// sockets or OS processes). Under -virtual the chaos and churn lanes
// accept -skew, which adds clock-skew faults — bounded per-member steps
// and rate errors that correct pairs must ride out — and every red chaos
// seed is automatically shrunk to its minimal violating schedule prefix.
// -sim-hours sets the accelerated soak's span of simulated protocol time.
//
// The chaos lane expands -seed into a deterministic fault schedule
// (partitions, crash churn, link shaping, value faults on one half of a
// replica pair), runs it for -minutes against a live FS-NewTOP cluster,
// and checks the paper's fail-silence oracles. A violated seed dumps the
// merged protocol trace and is immediately replayed to demonstrate the
// deterministic repro. -chaos-runs N sweeps N consecutive seeds; the exit
// status is the number of failing seeds (capped at 125). -churn arms
// restart churn on the chaos lane (auto-heal plus the replacement
// oracles).
//
// The churn lane sweeps -chaos-runs consecutive churn seeds — every
// schedule carries at least one crash, the auto-heal controller replaces
// each fail-signalled pair via state transfer — and aggregates the
// remediation timelines into membership availability and recovery-time
// percentiles (fired → fail-signal → readmission).
//
// Each experiment runs both NewTOP (crash-tolerant baseline) and
// FS-NewTOP (Byzantine-tolerant extension) over the same simulated fabric
// and prints the paper's series side by side. With -json <dir>, figure
// experiments additionally write machine-readable series as
// BENCH_fig{6,7,8}.json under <dir>, so the perf trajectory stays
// diffable across changes.
//
// With -procs N the fig8 sweep runs on the "tcp-procs" substrate: the
// same bring-up and workload loop, but fsbench re-executes itself N times
// with -worker, one OS process per member, driven over stdin/stdout
// control pipes, for both NewTOP and FS-NewTOP. It signs with HMAC only:
// RSA keys are minted in process, and cluster.NewSolo refuses -rsa in
// every worker. Its series file is BENCH_fig8_procs.json. Flags map onto
// bench options one to one; a combination no lane can run is refused by
// the library (bench.ErrRefused) and exits 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fsnewtop/bench"
	"fsnewtop/deploy"
	"fsnewtop/internal/chaos"
	"fsnewtop/internal/clock"
)

// experiments lists every -exp value but "all" (which runs the three
// figures).
var experiments = []string{"fig6", "fig7", "fig8", "soak", "wedge", "chaos", "churn"}

// runTimeout bounds each in-process run (the wedge lane caps it lower).
const runTimeout = 5 * time.Minute

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: "+strings.Join(experiments, ", ")+" or all")
		msgs      = flag.Int("msgs", 100, "messages per member (paper: 1000)")
		rsa       = flag.Bool("rsa", false, "sign FS outputs with MD5-and-RSA (the paper's scheme) instead of HMAC")
		trans     = flag.String("transport", bench.TransportNetsim, "network substrate: netsim (seeded simulator) or tcp (real loopback sockets)")
		members   = flag.String("members", "", "comma-separated group sizes override (fig6/fig7)")
		sizes     = flag.String("sizes", "", "comma-separated message sizes override in bytes (fig8)")
		soakSize  = flag.Int("soak-members", 40, "group size for -exp soak")
		soakMsgs  = flag.Int("soak-msgs", 5, "messages per member for -exp soak")
		seed      = flag.Int64("seed", 1, "network randomness seed")
		jsonDir   = flag.String("json", "", "directory to write BENCH_fig{6,7,8}.json series into")
		traceDir  = flag.String("trace", "", "directory for protocol trace dumps (stall and SIGQUIT); empty = OS temp dir")
		stallDump = flag.Bool("stall-dump", true, "write a trace dump (merged event timeline + goroutine stacks) when a run stalls")
		runs      = flag.Int("runs", 20, "repetitions for -exp wedge")
		minutes   = flag.Float64("minutes", 0, "active fault window for -exp chaos/churn, in minutes (0 = 10s)")
		chaosRuns = flag.Int("chaos-runs", 1, "consecutive seeds to sweep for -exp chaos/churn (seed, seed+1, ...)")
		churn     = flag.Bool("churn", false, "arm restart churn in -exp chaos (auto-heal + guaranteed crash + replacement oracles)")
		procs     = flag.Int("procs", 0, "run -exp fig8 with this many worker OS processes, one member each (NewTOP and FS-NewTOP over real TCP)")
		worker    = flag.Bool("worker", false, "internal: run as a deploy-plane worker, driven over stdin/stdout by a controller")
		virtual   = flag.Bool("virtual", false, "run soak/chaos/churn on the auto-advancing virtual clock (netsim only): simulated protocol time, wall cost = computation only")
		simHours  = flag.Float64("sim-hours", 1, "simulated protocol-hours for -exp soak -virtual")
		skew      = flag.Bool("skew", false, "schedule clock-skew faults (per-member steps and drift) in -exp chaos/churn; needs -virtual")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file when the invocation ends")
	)
	flag.Parse()

	// Worker mode replaces the whole benchmark surface: the process serves
	// the deploy control protocol until told to shut down. It must win
	// before fsbench's own SIGQUIT handler installs — the worker wires its
	// own (SIGTERM/SIGINT graceful, SIGQUIT trace dump).
	if *worker {
		if err := deploy.RunWorker(); err != nil {
			fmt.Fprintf(os.Stderr, "fsbench worker: %v\n", err)
			os.Exit(1)
		}
		return
	}

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		os.Exit(2)
	}
	if *trans != bench.TransportNetsim && *trans != bench.TransportTCP {
		usage("unknown -transport %q (want %s or %s)", *trans, bench.TransportNetsim, bench.TransportTCP)
	}
	// -procs N is the tcp-procs substrate with N members. What a substrate
	// can run is the library's call (bench.ErrRefused); settled here are
	// only which lane reads -procs, and two flags naming two substrates.
	substrate := *trans
	if *procs != 0 {
		if *exp != "fig8" {
			usage("-procs only supports -exp fig8 (got -exp %s): no other lane deploys across OS processes, and a \"distributed\" number measured in one address space is worse than an error", *exp)
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "transport" {
				usage("-procs chooses its own substrate (%s: real TCP across OS processes); drop -transport", bench.TransportTCPProcs)
			}
		})
		substrate = bench.TransportTCPProcs
	}

	// SIGQUIT dumps the active run's protocol trace and keeps going, so a
	// hung or crawling sweep can be inspected without killing it mid-run
	// (the Go runtime's default SIGQUIT behaviour would abort the whole
	// process). Stacks are part of the dump, so nothing is lost over the
	// runtime default — except the corpse.
	sigq := make(chan os.Signal, 1)
	signal.Notify(sigq, syscall.SIGQUIT)
	go func() {
		for range sigq {
			if path, err := bench.DumpTrace(*traceDir, "sigquit"); err != nil {
				fmt.Fprintf(os.Stderr, "SIGQUIT trace dump failed: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "SIGQUIT trace dump: %s\n", path)
			}
		}
	}()

	// Runs end the process from many places below; every one of them goes
	// through exit so the profiles are flushed first.
	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProfiles()
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}
	// exitFailed ends the process with the number of failed runs (capped at
	// 125), or 2 when the library refused the combination outright.
	exitFailed := func(failed int, refused bool) {
		switch {
		case refused:
			exit(2)
		case failed > 125:
			exit(125)
		case failed > 0:
			exit(failed)
		}
	}

	base := bench.Options{
		Members:       *procs,
		MsgsPerMember: *msgs,
		RSA:           *rsa,
		Transport:     substrate,
		Virtual:       *virtual,
		Timeout:       runTimeout,
		Seed:          *seed,
		TraceDir:      *traceDir,
		NoStallDump:   !*stallDump,
	}

	// figure prints one figure's table, writes its series under -json, and
	// counts its failed rows.
	failedRows, refused := 0, false
	figure := func(name, xAxis string, format func([]bench.Row) string, rows []bench.Row) {
		fmt.Print(format(rows))
		for _, r := range rows {
			if r.FSNewTOPErr != "" || r.NewTOPErr != "" {
				failedRows++
			}
			refused = refused || r.Refused
		}
		if *jsonDir == "" {
			return
		}
		if *rsa {
			// Crypto-fidelity runs get their own series file (e.g.
			// BENCH_fig8_rsa.json) so they never overwrite the HMAC
			// trajectory they are compared against.
			name += "_rsa"
		}
		// Real-socket runs likewise get their own files: the series metadata
		// records the substrate, and the filename keeps a tcp or
		// multi-process run from ever overwriting the netsim trajectory.
		switch substrate {
		case bench.TransportTCP:
			name += "_tcp"
		case bench.TransportTCPProcs:
			name += "_procs"
		}
		path, err := bench.WriteSeries(*jsonDir, bench.ToSeries(name, xAxis, substrate, rows))
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s series: %v\n", name, err)
			exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}

	runSoak := func() {
		if *virtual {
			// The accelerated soak has its own shape: covered protocol time
			// is the knob (-sim-hours), not message density, and the group
			// defaults small — the lane exists to stretch the timeline, the
			// 40-member scheduler soak above already stretches the group. An
			// explicit -soak-members still wins.
			opts := bench.Options{
				System:      bench.SystemFSNewTOP,
				Seed:        *seed,
				RSA:         *rsa,
				Transport:   substrate,
				TraceDir:    *traceDir,
				NoStallDump: !*stallDump,
			}
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "soak-members" {
					opts.Members = *soakSize
				}
			})
			vr, err := bench.RunVirtualSoak(opts, *simHours)
			fmt.Print(bench.FormatVirtualSoak(vr, err))
			if err != nil {
				exitFailed(1, errors.Is(err, bench.ErrRefused))
			}
			return
		}
		for _, sys := range []bench.System{bench.SystemNewTOP, bench.SystemFSNewTOP} {
			opts := base
			opts.System = sys
			opts.Members = *soakSize
			opts.MsgsPerMember = *soakMsgs
			opts.SendInterval = 4 * time.Millisecond
			res, err := bench.RunSoak(opts)
			fmt.Print(bench.FormatSoak(res, err))
		}
	}

	// runWedge is the FS-over-TCP wedge repro lane: the exact
	// configuration that intermittently stuck at a round boundary
	// (ROADMAP fig8 shape — 10 members, 5 msgs, 1 KiB payloads, real
	// loopback sockets), run repeatedly. A stall fails fast with
	// *bench.ErrStalled and a trace dump instead of hanging out the wall
	// timeout. Exit status is the number of failed runs (capped at 125).
	runWedge := func() {
		failed, refused := 0, false
		for i := 1; i <= *runs; i++ {
			opts := base
			opts.System = bench.SystemFSNewTOP
			opts.Members = 10
			opts.MsgsPerMember = 5
			opts.MsgSize = 1024
			opts.Transport = bench.TransportTCP
			opts.Timeout = 30 * time.Second
			start := time.Now()
			res, err := bench.Run(opts)
			status := "ok"
			if err != nil {
				status = err.Error()
				failed++
				refused = refused || errors.Is(err, bench.ErrRefused)
			}
			fmt.Printf("wedge run %2d/%d: delivered %d/%d in %v: %s\n",
				i, *runs, res.Delivered, res.Expected, time.Since(start).Round(time.Millisecond), status)
		}
		exitFailed(failed, refused)
	}

	var dur time.Duration // the chaos/churn active window (0 = chaos's 10s)
	if *minutes > 0 {
		dur = time.Duration(*minutes * float64(time.Minute))
	}
	// chaosSeed runs one seed through bench.RunChaos, on a fresh virtual
	// clock under -virtual, and returns its report with the wall time a
	// virtual run cost (0 on the wall clock). A harness error ends the
	// process with status 2 under label.
	chaosSeed := func(label string, opts chaos.Options) (*chaos.Report, time.Duration) {
		start := time.Now()
		if *virtual {
			v := clock.NewVirtual()
			defer v.Stop()
			opts.Clock = v
		}
		rep, err := bench.RunChaos(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", label, err)
			exit(2)
		}
		if !*virtual {
			return rep, 0
		}
		return rep, time.Since(start)
	}

	// runChaos is the seeded fault-schedule fuzz lane. Each seed expands
	// deterministically into one schedule; a red seed is replayed at once
	// so the output itself demonstrates the reproducible verdict.
	runChaos := func() {
		failed := 0
		for i := 0; i < *chaosRuns; i++ {
			opts := chaos.Options{Seed: *seed + int64(i), Duration: dur, Transport: substrate,
				TraceDir: *traceDir, Churn: *churn, Skew: *skew}
			rep, wall := chaosSeed(fmt.Sprintf("chaos seed %d", opts.Seed), opts)
			fmt.Print(bench.FormatChaos(rep, wall))
			if rep.Passed() {
				continue
			}
			failed++
			replay, _ := chaosSeed(fmt.Sprintf("chaos replay of seed %d", opts.Seed), opts)
			fmt.Printf("chaos seed %d replay: %s (schedule identical: %v, verdict identical: %v)\n",
				opts.Seed, replay.Verdict(),
				replay.Schedule.String() == rep.Schedule.String(), replay.Verdict() == rep.Verdict())
			if *virtual {
				// Virtual trials are cheap enough to shrink every red seed to
				// its minimal violating prefix on the spot; Minimize gives each
				// trial a fresh virtual clock of its own.
				v := clock.NewVirtual()
				opts.Clock = v
				shrink, err := chaos.Minimize(opts)
				v.Stop()
				if err != nil {
					fmt.Fprintf(os.Stderr, "chaos shrink of seed %d: %v\n", opts.Seed, err)
				} else {
					fmt.Print(chaos.FormatShrink(shrink))
				}
			}
		}
		if *chaosRuns > 1 {
			fmt.Printf("chaos sweep: %d/%d seeds passed\n", *chaosRuns-failed, *chaosRuns)
		}
		exitFailed(failed, false)
	}

	// runChurn is the sustained-churn lane: consecutive churn seeds (every
	// schedule carries at least one crash, auto-heal armed), with the
	// remediation timelines aggregated into membership availability and
	// recovery-time percentiles. Exit status is the number of red seeds.
	runChurn := func() {
		var reps []*chaos.Report
		for i := 0; i < max(*chaosRuns, 1); i++ {
			rep, _ := chaosSeed("churn sweep", chaos.Options{Seed: *seed + int64(i), Duration: dur,
				Transport: substrate, TraceDir: *traceDir, Churn: true, Skew: *skew})
			reps = append(reps, rep)
		}
		sweep := bench.ChurnSweep(reps)
		fmt.Print(bench.FormatChurn(sweep))
		exitFailed(sweep.Failed, false)
	}

	run := func(name string) {
		switch name {
		case "fig6":
			figure("fig6", "members", bench.FormatFig6, bench.RunFig6(base, parseInts(*members)))
		case "fig7":
			figure("fig7", "members", bench.FormatFig7, bench.RunFig7(base, parseInts(*members)))
		case "fig8":
			figure("fig8", "bytes", bench.FormatFig8, bench.RunFig8(base, parseInts(*sizes)))
		case "soak":
			runSoak()
		case "wedge":
			runWedge()
		case "chaos":
			runChaos()
		case "churn":
			runChurn()
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want %s or all)\n", name, strings.Join(experiments, ", "))
			exit(2)
		}
		fmt.Println()
	}

	banner := substrate
	if *procs != 0 {
		banner += fmt.Sprintf(" procs=%d", *procs)
	}
	if *virtual {
		banner += " virtual"
	}
	fmt.Printf("# fsbench: msgs/member=%d rsa=%v transport=%s\n\n", *msgs, *rsa, banner)
	if *exp == "all" {
		for _, name := range []string{"fig6", "fig7", "fig8"} {
			run(name)
		}
	} else {
		run(*exp)
	}
	exitFailed(failedRows, refused)
}

// startProfiles starts the CPU profile (if asked for) and returns the
// function that stops it and writes the heap profile (if asked for). The
// returned function is safe to call more than once.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpu != nil {
				pprof.StopCPUProfile()
				if err := cpu.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
				}
			}
			if memPath != "" {
				if err := writeHeapProfile(memPath); err != nil {
					fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
				}
			}
		})
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // the profile reports the last collection's live heap
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseInts parses "2,4,8"; nil on empty (selects the experiment default).
func parseInts(s string) []int {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad integer list %q: %v\n", s, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
