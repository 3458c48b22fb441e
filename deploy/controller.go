package deploy

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"fsnewtop/cluster"
	"fsnewtop/internal/clock"
	"fsnewtop/transport/tcpnet"
)

// Config parameterises one controller run.
type Config struct {
	// Workers is the number of member processes (the group size).
	Workers int
	// Command is the worker argv. Empty selects this binary with the
	// -worker flag — correct for fsbench, whose worker mode is that flag.
	Command []string
	// Spec parameterises the workload and the members' stacks; zero fields
	// get RunSpec.FillDefaults' values.
	Spec RunSpec
	// StallAfter is the run-phase watchdog window: if the fleet's
	// aggregate delivery count stops moving for this long while workers
	// are still owed messages, the run is declared wedged — dumps are
	// collected and *ErrStalled returned. Zero selects StallWindow(δ).
	StallAfter time.Duration
	// OnRunStart, if set, is called right after the run command is
	// broadcast, with each member's worker PID — the hook fault tests use
	// to kill a specific member mid-run.
	OnRunStart func(pids map[string]int)
}

const (
	// startupTimeout bounds each pre-run phase: spawn → hello, configure →
	// ready, join → joined.
	startupTimeout = 60 * time.Second
	// collectTimeout bounds post-mortem collection (trace dumps from
	// survivors, exit-status reaping) and graceful shutdown.
	collectTimeout = 15 * time.Second
)

// Result aggregates one distributed run.
type Result struct {
	// Stats is each worker's measurements, in member order.
	Stats []WorkerStats
	// Elapsed is the whole orchestration's wall time (spawn → shutdown).
	Elapsed time.Duration
}

// fillDefaults validates and defaults the configuration.
func (c *Config) fillDefaults() error {
	if c.Workers < 2 {
		return fmt.Errorf("deploy: need at least two workers (got %d)", c.Workers)
	}
	if len(c.Command) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("deploy: no worker command and no self path: %w", err)
		}
		c.Command = []string{exe, "-worker"}
	}
	c.Spec.FillDefaults(c.Workers)
	if c.StallAfter == 0 {
		c.StallAfter = StallWindow(c.Spec.Delta)
	}
	return nil
}

// WorkerError reports a worker process that died (or reported a fatal
// error) while the controller still needed it. It names everything a
// post-mortem starts from: the member, the phase, how the process ended,
// its last control message, its stderr tail, and the trace dumps
// collected from the surviving workers.
type WorkerError struct {
	// Member is the dead worker's member name.
	Member string
	// Phase is the controller phase during which it failed.
	Phase string
	// ExitCode is the process's exit code (-1 when killed by a signal or
	// not yet reaped); ExitDesc is the human form ("exit status 1",
	// "signal: killed").
	ExitCode int
	ExitDesc string
	// Message is the worker's own fatal-error report (its error control
	// message), when it managed to send one.
	Message string
	// LastMsg is the type of the last control message received from the
	// worker before it died.
	LastMsg string
	// Stderr is the tail of the worker's stderr.
	Stderr string
	// DumpPaths are the trace dumps collected from surviving workers.
	DumpPaths []string
}

// Error implements error.
func (e *WorkerError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "deploy: worker %s failed during %s phase: %s (exit code %d)",
		e.Member, e.Phase, e.ExitDesc, e.ExitCode)
	if e.Message != "" {
		fmt.Fprintf(&b, "; reported: %s", e.Message)
	}
	if e.LastMsg != "" {
		fmt.Fprintf(&b, "; last control message %q", e.LastMsg)
	}
	if e.Stderr != "" {
		fmt.Fprintf(&b, "; stderr tail: %s", strings.TrimSpace(e.Stderr))
	}
	if len(e.DumpPaths) > 0 {
		fmt.Fprintf(&b, "; survivor trace dumps: %s", strings.Join(e.DumpPaths, ", "))
	}
	return b.String()
}

// ProcProgress is one worker's delivery state when a stall was declared.
type ProcProgress struct {
	Member    string
	Delivered int
	Done      bool
}

// ErrStalled reports that the distributed run stopped making delivery
// progress for the watchdog window while workers were still owed
// messages — the controller-layer analogue of bench.ErrStalled.
type ErrStalled struct {
	// Quiet is the watchdog window that elapsed without progress.
	Quiet time.Duration
	// Delivered and Expected are fleet-wide delivery totals.
	Delivered, Expected int
	// PerMember is each worker's progress, in member order.
	PerMember []ProcProgress
	// DumpPaths are the trace dumps collected from the workers.
	DumpPaths []string
}

// Error implements error.
func (e *ErrStalled) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "deploy: run stalled: no delivery progress for %v, delivered %d of %d [",
		e.Quiet.Round(time.Millisecond), e.Delivered, e.Expected)
	for i, p := range e.PerMember {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", p.Member, p.Delivered)
		if p.Done {
			b.WriteString("(done)")
		}
	}
	b.WriteByte(']')
	if len(e.DumpPaths) > 0 {
		fmt.Fprintf(&b, " trace dumps: %s", strings.Join(e.DumpPaths, ", "))
	}
	return b.String()
}

// event is one occurrence on a worker: a control message or its exit.
type event struct {
	p    *proc
	msg  Msg
	exit bool
}

// proc is one supervised worker process.
type proc struct {
	member string
	cmd    *exec.Cmd
	in     *msgWriter
	stdin  io.Closer
	tail   *tailBuffer
	pid    int

	mu        sync.Mutex
	endpoint  string
	lastMsg   string
	delivered int
	done      bool
	stats     *WorkerStats
	exited    bool
	exitCode  int
	exitDesc  string
}

func (p *proc) hasExited() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exited
}

// controller supervises the fleet through the run lifecycle.
type controller struct {
	cfg    Config
	clk    clock.Clock
	procs  []*proc
	events chan event
}

// Run orchestrates one distributed run: spawn the workers, distribute
// the placement manifest, form the group, drive the workload, aggregate
// the measurements, and shut the fleet down. Any worker death surfaces
// as *WorkerError; a wedged run surfaces as *ErrStalled within the
// watchdog window. All workers are dead by the time Run returns.
func Run(cfg Config) (Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return Result{}, err
	}
	c := &controller{cfg: cfg, clk: clock.NewReal(), events: make(chan event, 8*cfg.Workers)}
	start := c.clk.Now()
	defer c.killAll()

	for i := 0; i < cfg.Workers; i++ {
		member := fmt.Sprintf("m%02d", i)
		p, err := c.spawn(member)
		if err != nil {
			return Result{}, fmt.Errorf("deploy: spawning worker %s: %w", member, err)
		}
		c.procs = append(c.procs, p)
	}

	if err := c.awaitAll(msgHello, "startup", startupTimeout); err != nil {
		return Result{}, err
	}

	// Placement manifest: every member's transport addresses
	// (cluster.MemberAddrs, the plan of both stacks), all served by the
	// endpoint its worker reported.
	roster := make([]string, 0, len(c.procs))
	entries := make([]tcpnet.PeerEntry, 0, 4*len(c.procs))
	for _, p := range c.procs {
		roster = append(roster, p.member)
		p.mu.Lock()
		ep := p.endpoint
		p.mu.Unlock()
		for _, a := range cluster.MemberAddrs(p.member) {
			entries = append(entries, tcpnet.PeerEntry{Addr: string(a), Endpoint: ep})
		}
	}

	spec := cfg.Spec
	for _, p := range c.procs {
		if err := p.in.send(Msg{Type: msgConfigure, Member: p.member, Roster: roster, Manifest: entries, Spec: &spec}); err != nil {
			return Result{}, c.workerError(p, "configure", nil)
		}
	}
	if err := c.awaitAll(msgReady, "configure", startupTimeout); err != nil {
		return Result{}, err
	}

	if err := c.broadcast(msgJoin, "join"); err != nil {
		return Result{}, err
	}
	if err := c.awaitAll(msgJoined, "join", startupTimeout); err != nil {
		return Result{}, err
	}

	if err := c.broadcast(msgRun, "run"); err != nil {
		return Result{}, err
	}
	if cfg.OnRunStart != nil {
		pids := make(map[string]int, len(c.procs))
		for _, p := range c.procs {
			pids[p.member] = p.pid
		}
		cfg.OnRunStart(pids)
	}
	if err := c.runPhase(); err != nil {
		return Result{}, err
	}

	res := Result{Stats: make([]WorkerStats, 0, len(c.procs))}
	for _, p := range c.procs {
		p.mu.Lock()
		stats := p.stats
		p.mu.Unlock()
		if stats == nil {
			return Result{}, fmt.Errorf("deploy: worker %s finished without stats", p.member)
		}
		res.Stats = append(res.Stats, *stats)
	}

	c.shutdownAll()
	res.Elapsed = c.clk.Since(start)
	return res, nil
}

// spawn starts one worker process and its event pump.
func (c *controller) spawn(member string) (*proc, error) {
	cmd := exec.Command(c.cfg.Command[0], c.cfg.Command[1:]...)
	tail := &tailBuffer{max: 4096}
	cmd.Stderr = tail
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	// Kill the worker with the controller: no orchestration crash may
	// leak member processes (Linux PDEATHSIG; elsewhere the worker's
	// stdin-EOF exit is the backstop).
	setPdeathsig(cmd)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{
		member:   member,
		cmd:      cmd,
		in:       newMsgWriter(stdin),
		stdin:    stdin,
		tail:     tail,
		pid:      cmd.Process.Pid,
		exitCode: -1,
		exitDesc: "running",
	}
	go func() {
		_ = readMsgs(stdout, func(m Msg) {
			p.mu.Lock()
			p.lastMsg = m.Type
			p.mu.Unlock()
			c.events <- event{p: p, msg: m}
		})
		_ = cmd.Wait()
		p.mu.Lock()
		p.exited = true
		p.exitCode = -1
		p.exitDesc = "exited (status unknown)"
		if cmd.ProcessState != nil {
			p.exitCode = cmd.ProcessState.ExitCode()
			p.exitDesc = cmd.ProcessState.String()
		}
		p.mu.Unlock()
		c.events <- event{p: p, exit: true}
	}()
	return p, nil
}

// absorb records a message's side effects on its worker's state.
func (c *controller) absorb(ev event) {
	if ev.exit {
		return
	}
	ev.p.mu.Lock()
	defer ev.p.mu.Unlock()
	switch ev.msg.Type {
	case msgHello:
		ev.p.endpoint = ev.msg.Endpoint
	case msgProgress:
		if ev.msg.Delivered > ev.p.delivered {
			ev.p.delivered = ev.msg.Delivered
		}
	case msgDone:
		ev.p.done = true
		ev.p.stats = ev.msg.Stats
		if ev.msg.Stats != nil && ev.msg.Stats.Delivered > ev.p.delivered {
			ev.p.delivered = ev.msg.Stats.Delivered
		}
	}
}

// broadcast sends one control message to every worker.
func (c *controller) broadcast(msgType, phase string) error {
	for _, p := range c.procs {
		if err := p.in.send(Msg{Type: msgType}); err != nil {
			return c.workerError(p, phase, nil)
		}
	}
	return nil
}

// awaitAll waits until every worker has sent a message of type want,
// failing on the first worker death, worker-reported error, or timeout.
func (c *controller) awaitAll(want, phase string, timeout time.Duration) error {
	seen := make(map[*proc]bool, len(c.procs))
	timer := c.clk.NewTimer(timeout)
	defer timer.Stop()
	for len(seen) < len(c.procs) {
		select {
		case ev := <-c.events:
			if ev.exit {
				return c.workerError(ev.p, phase, nil)
			}
			c.absorb(ev)
			if ev.msg.Type == msgError {
				m := ev.msg
				return c.workerError(ev.p, phase, &m)
			}
			if ev.msg.Type == want {
				seen[ev.p] = true
			}
		case <-timer.C():
			var missing []string
			for _, p := range c.procs {
				if !seen[p] {
					missing = append(missing, p.member)
				}
			}
			return fmt.Errorf("deploy: %s phase timed out after %v waiting for %q from %s",
				phase, timeout, want, strings.Join(missing, ", "))
		}
	}
	return nil
}

// runPhase supervises the workload: it consumes progress and done
// messages until every worker finished, arming the stall watchdog
// against the fleet's aggregate delivery count.
func (c *controller) runPhase() error {
	done := 0
	total := 0
	stall := c.clk.NewTimer(c.cfg.StallAfter)
	defer func() { stall.Stop() }()
	for done < len(c.procs) {
		select {
		case ev := <-c.events:
			if ev.exit {
				return c.workerError(ev.p, "run", nil)
			}
			c.absorb(ev)
			switch ev.msg.Type {
			case msgError:
				m := ev.msg
				return c.workerError(ev.p, "run", &m)
			case msgProgress:
				if t := c.totalDelivered(); t > total {
					total = t
					stall.Stop()
					stall = c.clk.NewTimer(c.cfg.StallAfter)
				}
			case msgDone:
				done++
				stall.Stop()
				stall = c.clk.NewTimer(c.cfg.StallAfter)
			}
		case <-stall.C():
			st := &ErrStalled{
				Quiet:     c.cfg.StallAfter,
				Expected:  c.cfg.Workers * c.cfg.Workers * c.cfg.Spec.MsgsPerMember,
				DumpPaths: c.collectDumps(nil),
			}
			for _, p := range c.procs {
				p.mu.Lock()
				st.Delivered += p.delivered
				st.PerMember = append(st.PerMember, ProcProgress{Member: p.member, Delivered: p.delivered, Done: p.done})
				p.mu.Unlock()
			}
			return st
		}
	}
	return nil
}

// totalDelivered sums the fleet's delivery counts.
func (c *controller) totalDelivered() int {
	total := 0
	for _, p := range c.procs {
		p.mu.Lock()
		total += p.delivered
		p.mu.Unlock()
	}
	return total
}

// workerError builds the structured error for one failed worker: reap
// its exit status, collect trace dumps from the survivors, and snapshot
// everything a post-mortem needs. errMsg is the worker's error control
// message, when that is what surfaced the failure.
func (c *controller) workerError(p *proc, phase string, errMsg *Msg) error {
	c.awaitExit(p, collectTimeout)
	dumps := c.collectDumps(p)
	p.mu.Lock()
	defer p.mu.Unlock()
	we := &WorkerError{
		Member:    p.member,
		Phase:     phase,
		ExitCode:  p.exitCode,
		ExitDesc:  p.exitDesc,
		LastMsg:   p.lastMsg,
		Stderr:    p.tail.String(),
		DumpPaths: dumps,
	}
	if errMsg != nil {
		we.Message = errMsg.Error
	}
	return we
}

// awaitExit consumes events until p's exit is reaped or the timeout
// passes, so the structured error reports a real exit status instead of
// "running".
func (c *controller) awaitExit(p *proc, timeout time.Duration) {
	if p.hasExited() {
		return
	}
	timer := c.clk.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case ev := <-c.events:
			c.absorb(ev)
			if ev.exit && ev.p == p {
				return
			}
		case <-timer.C():
			return
		}
	}
}

// collectDumps asks every live worker (minus except) for a trace dump
// and gathers the paths, bounded by collectTimeout — post-mortem
// evidence from the survivors' protocol rings.
func (c *controller) collectDumps(except *proc) []string {
	asked := make(map[*proc]bool, len(c.procs))
	for _, p := range c.procs {
		if p == except || p.hasExited() {
			continue
		}
		if p.in.send(Msg{Type: msgDump}) == nil {
			asked[p] = true
		}
	}
	var paths []string
	timer := c.clk.NewTimer(collectTimeout)
	defer timer.Stop()
	for len(asked) > 0 {
		select {
		case ev := <-c.events:
			c.absorb(ev)
			if ev.exit {
				delete(asked, ev.p)
				continue
			}
			if ev.msg.Type == msgDumped && asked[ev.p] {
				delete(asked, ev.p)
				if ev.msg.Path != "" {
					paths = append(paths, ev.msg.Path)
				}
			}
		case <-timer.C():
			return paths
		}
	}
	return paths
}

// shutdownAll ends the fleet: a shutdown control message first (clean
// deregistration), then SIGTERM, then — from the deferred killAll —
// SIGKILL. Failures here are absorbed: the measurements are already in
// hand, and the deferred killAll guarantees no process outlives Run.
func (c *controller) shutdownAll() {
	for _, p := range c.procs {
		if !p.hasExited() {
			_ = p.in.send(Msg{Type: msgShutdown})
		}
	}
	c.drainExits(collectTimeout)
	for _, p := range c.procs {
		if !p.hasExited() {
			_ = p.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	c.drainExits(2 * time.Second)
}

// killAll force-kills whatever is still running and reaps it.
func (c *controller) killAll() {
	for _, p := range c.procs {
		if !p.hasExited() {
			_ = p.cmd.Process.Kill()
		}
	}
	c.drainExits(5 * time.Second)
}

// drainExits consumes events until every worker has exited or the
// timeout passes.
func (c *controller) drainExits(timeout time.Duration) {
	alive := 0
	for _, p := range c.procs {
		if !p.hasExited() {
			alive++
		}
	}
	if alive == 0 {
		return
	}
	timer := c.clk.NewTimer(timeout)
	defer timer.Stop()
	for alive > 0 {
		select {
		case ev := <-c.events:
			c.absorb(ev)
			if ev.exit {
				alive--
			}
		case <-timer.C():
			return
		}
	}
}

// tailBuffer keeps the last max bytes written — a worker's stderr tail
// for the structured error, without unbounded buffering.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

// Write implements io.Writer.
func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0:0], t.buf[len(t.buf)-t.max:]...)
	}
	t.mu.Unlock()
	return len(p), nil
}

// String returns the tail.
func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
