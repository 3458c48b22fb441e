package deploy

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"fsnewtop/cluster"
	"fsnewtop/internal/clock"
	"fsnewtop/internal/trace"
	"fsnewtop/transport/tcpnet"
)

// RunWorker hosts one member process end to end — the control protocol on
// stdin/stdout, diagnostics on stderr, an ephemeral loopback listener:
// bind, hello, configure (address-book seeding + cluster.NewSolo), join,
// workload, shutdown. It returns nil on a clean shutdown — whether requested by the controller
// or by SIGTERM/SIGINT, both of which deregister the member's addresses
// from the shared book (tcpnet's Close withdraws them) before exiting —
// and an error on anything fatal, after reporting it to the controller.
// SIGQUIT dumps the protocol trace ring and keeps running. A closed
// control stdin means the controller is gone: the worker cleans up and
// exits instead of lingering as an orphan.
func RunWorker() error {
	out := newMsgWriter(os.Stdout)
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "worker: "+format+"\n", args...)
	}

	term := make(chan os.Signal, 2)
	signal.Notify(term, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(term)
	sigq := make(chan os.Signal, 1)
	signal.Notify(sigq, syscall.SIGQUIT)
	defer signal.Stop(sigq)

	msgs := make(chan Msg, 16)
	readErr := make(chan error, 1)
	go func() {
		readErr <- readMsgs(os.Stdin, func(m Msg) { msgs <- m })
	}()

	tr, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		_ = out.send(Msg{Type: msgError, Error: err.Error()})
		return err
	}
	defer tr.Close()

	reg := trace.NewRegistry(0, nil)
	var traceDir atomic.Value // string; set by configure, read by SIGQUIT
	traceDir.Store("")
	go func() {
		for range sigq {
			dir, _ := traceDir.Load().(string)
			if path, err := reg.Dump(dir, "sigquit"); err != nil {
				logf("SIGQUIT trace dump failed: %v", err)
			} else {
				logf("SIGQUIT trace dump: %s", path)
			}
		}
	}()

	if err := out.send(Msg{Type: msgHello, Endpoint: tr.Endpoint(), PID: os.Getpid()}); err != nil {
		return fmt.Errorf("deploy: sending hello: %w", err)
	}

	var (
		cl      *cluster.Cluster
		mem     *cluster.Member
		spec    RunSpec
		self    string
		roster  []string
		running bool
		// ran carries the workload's measurements back to this loop;
		// stopRun, closed on the way out, ends a workload still in flight.
		ran     = make(chan WorkerStats, 1)
		stopRun = make(chan struct{})
	)
	defer func() {
		close(stopRun)
		if cl != nil {
			cl.Close()
		}
	}()
	fail := func(err error) error {
		_ = out.send(Msg{Type: msgError, Member: self, Error: err.Error()})
		return err
	}

	for {
		select {
		case <-term:
			logf("%s: terminated by signal; deregistering and closing transport", self)
			return nil
		case err := <-readErr:
			if err == nil || errors.Is(err, io.EOF) {
				return fmt.Errorf("deploy: control channel closed by controller")
			}
			return fmt.Errorf("deploy: control channel: %w", err)
		case stats := <-ran:
			if stats.SendError != "" {
				return fail(fmt.Errorf("deploy: %s: %s", self, stats.SendError))
			}
			ts := tr.Stats()
			stats.NetMessages, stats.NetBytes = ts.Sent, ts.Bytes
			stats.SigChecks = cl.SigChecks()
			if err := out.send(Msg{Type: msgDone, Member: self, Stats: &stats}); err != nil {
				return err
			}
		case m := <-msgs:
			switch m.Type {
			case msgConfigure:
				if m.Spec == nil || m.Member == "" || len(m.Roster) < 2 {
					return fail(fmt.Errorf("deploy: malformed configure (member %q, %d roster entries, spec present: %v)",
						m.Member, len(m.Roster), m.Spec != nil))
				}
				spec, self, roster = *m.Spec, m.Member, m.Roster
				traceDir.Store(spec.TraceDir)
				// Round-tripping the manifest through MarshalPeers +
				// LoadPeers reuses the book's full validation (duplicate
				// addresses, malformed endpoints) on the receiving side,
				// where a bad entry would otherwise surface as a silent
				// resolution failure mid-run.
				data, err := tcpnet.MarshalPeers(m.Manifest)
				if err != nil {
					return fail(fmt.Errorf("deploy: manifest from controller: %w", err))
				}
				if _, err := tr.Book().LoadPeers(bytes.NewReader(data)); err != nil {
					return fail(fmt.Errorf("deploy: seeding address book: %w", err))
				}
				if _, err := tr.Book().PeersFromEnv(); err != nil {
					return fail(fmt.Errorf("deploy: %w", err))
				}
				peers := make([]string, 0, len(roster)-1)
				selfListed := false
				for _, r := range roster {
					if r == self {
						selfListed = true
						continue
					}
					peers = append(peers, r)
				}
				if !selfListed {
					return fail(fmt.Errorf("deploy: roster %v does not include this worker's member %q", roster, self))
				}
				cl, err = cluster.NewSolo(self, peers,
					append(spec.Options(), cluster.WithTransport(tr), cluster.WithTrace(reg))...)
				if err != nil {
					return fail(err)
				}
				mem = cl.Member(self)
				logf("%s: configured (endpoint %s, %d peers)", self, tr.Endpoint(), len(peers))
				if err := out.send(Msg{Type: msgReady, Member: self}); err != nil {
					return err
				}
			case msgJoin:
				if mem == nil {
					return fail(fmt.Errorf("deploy: join before configure"))
				}
				if err := mem.Join(spec.Group, roster...); err != nil {
					return fail(fmt.Errorf("deploy: %s joining %q: %w", self, spec.Group, err))
				}
				if err := out.send(Msg{Type: msgJoined, Member: self}); err != nil {
					return err
				}
			case msgRun:
				if mem == nil {
					return fail(fmt.Errorf("deploy: run before configure"))
				}
				if running {
					return fail(fmt.Errorf("deploy: duplicate run"))
				}
				running = true
				runWorkload(out, self, mem, spec, len(roster), stopRun, ran)
			case msgDump:
				dir, _ := traceDir.Load().(string)
				rsp := Msg{Type: msgDumped, Member: self}
				if path, err := reg.Dump(dir, "collect"); err != nil {
					rsp.Error = err.Error()
				} else {
					rsp.Path = path
				}
				if err := out.send(rsp); err != nil {
					return err
				}
			case msgShutdown:
				logf("%s: shutdown", self)
				return nil
			}
		}
	}
}

// progressBeat is how often a running worker reports its delivery count.
const progressBeat = 250 * time.Millisecond

// runWorkload starts mem's workload and polls it in one observer pass on
// the wall clock. The pass reports the delivery count every progressBeat,
// so the controller's stall watchdog can tell a slow run from a wedged
// one, and hands ran the measurements once the workload ends or stop
// closes. Run-phase deadlines are the controller's job: a watchdogged
// worker is still reachable for dump collection.
func runWorkload(out *msgWriter, self string, mem *cluster.Member, spec RunSpec, members int, stop <-chan struct{}, ran chan<- WorkerStats) {
	clk := clock.NewReal()
	start := clk.Now()
	w := StartWorkload(clk, start, mem, spec, members, stop)
	var delivered atomic.Int64
	beat := start
	clock.Observe(clk, func(now time.Time) bool {
		ended := w.Poll(&delivered)
		select {
		case <-stop:
			ended = true
		default:
		}
		if ended {
			ran <- w.Stats()
			return false
		}
		if now.Sub(beat) >= progressBeat {
			beat = now
			_ = out.send(Msg{Type: msgProgress, Member: self, Delivered: int(delivered.Load())})
		}
		return true
	})
}
