package deploy

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// workerEnvVar flips the test binary into worker mode: the controller
// tests spawn their own binary as the worker processes, so the e2e path
// exercises real fork/exec, real pipes, real signals — no in-process
// simulation of any of it.
const workerEnvVar = "FSNEWTOP_DEPLOY_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnvVar) == "1" {
		if err := RunWorker(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func selfCommand(t *testing.T) []string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	return []string{exe}
}

func workerEnv() []string {
	return append(os.Environ(), workerEnvVar+"=1")
}

// asWorkers makes the processes this test spawns serve the worker side:
// they inherit the controller's environment.
func asWorkers(t *testing.T) { t.Setenv(workerEnvVar, "1") }

// TestDeployFourWorkers is the deploy plane's core e2e property: four
// real OS processes — separate address spaces, real sockets, real pipes —
// form one FS-NewTOP group and totally order a short fig8-shaped
// workload, and the controller aggregates sane per-worker measurements.
func TestDeployFourWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	asWorkers(t)
	cfg := Config{
		Workers: 4,
		Command: selfCommand(t),
		Spec: RunSpec{
			MsgsPerMember: 5,
			MsgSize:       64,
			SendInterval:  5 * time.Millisecond,
			TraceDir:      t.TempDir(),
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Stats) != 4 {
		t.Fatalf("got %d worker stats, want 4", len(res.Stats))
	}
	for _, ws := range res.Stats {
		if ws.Delivered < ws.Expected || ws.Expected != 4*5 {
			t.Errorf("%s: delivered %d of %d", ws.Member, ws.Delivered, ws.Expected)
		}
		if len(ws.LatencyNS) != 5 {
			t.Errorf("%s: %d latency samples, want 5 (one per own message)", ws.Member, len(ws.LatencyNS))
		}
		if ws.Window <= 0 {
			t.Errorf("%s: non-positive throughput window %v", ws.Member, ws.Window)
		}
		if ws.NetMessages == 0 {
			t.Errorf("%s: no transport traffic counted", ws.Member)
		}
		if ws.SigCacheMisses == 0 {
			t.Errorf("%s: no signature verifications counted — cross-process verification cannot have happened", ws.Member)
		}
	}
	if res.Elapsed <= 0 {
		t.Errorf("non-positive elapsed %v", res.Elapsed)
	}
}

// TestDeployWorkerKilledMidRun is the supervision property the issue
// pins: a worker dying mid-run must surface as a structured error naming
// the member, its exit status and its last control message — promptly,
// never as a hang for the full stall window at the surviving members.
func TestDeployWorkerKilledMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	victim := "m02"
	asWorkers(t)
	cfg := Config{
		Workers: 4,
		Command: selfCommand(t),
		Spec: RunSpec{
			MsgsPerMember: 100,
			SendInterval:  5 * time.Millisecond,
			TraceDir:      t.TempDir(),
		},
		OnRunStart: func(pids map[string]int) {
			pid, ok := pids[victim]
			if !ok {
				t.Errorf("OnRunStart pids %v missing %s", pids, victim)
				return
			}
			if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
				t.Errorf("killing %s (pid %d): %v", victim, pid, err)
			}
		},
	}
	start := time.Now()
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("Run succeeded despite a worker being SIGKILLed mid-run")
	}
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("error is %T (%v), want *WorkerError", err, err)
	}
	if we.Member != victim {
		t.Errorf("WorkerError.Member = %q, want %q", we.Member, victim)
	}
	if we.Phase != "run" {
		t.Errorf("WorkerError.Phase = %q, want \"run\"", we.Phase)
	}
	if !strings.Contains(we.ExitDesc, "killed") {
		t.Errorf("WorkerError.ExitDesc = %q, want it to name the kill signal", we.ExitDesc)
	}
	if we.LastMsg == "" {
		t.Error("WorkerError.LastMsg empty: the controller lost track of the protocol position")
	}
	if !strings.Contains(err.Error(), victim) {
		t.Errorf("error text %q does not name the victim", err)
	}
	// "Never a hang": the verdict must beat the stall window (which this
	// config floors at 5s) by arriving on the exit event itself. Generous
	// bound: the whole orchestration including startup, well under the
	// window plus startup slack.
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Errorf("verdict took %v — the death was absorbed instead of failing fast", elapsed)
	}
}

// spawnRawWorker starts one worker process outside any controller, with
// its control stdin held open, and returns the process, its stdin
// handle, and a channel of decoded control messages.
func spawnRawWorker(t *testing.T) (*exec.Cmd, *os.File, <-chan Msg) {
	t.Helper()
	exe := selfCommand(t)[0]
	cmd := exec.Command(exe)
	cmd.Env = workerEnv()
	cmd.Stderr = os.Stderr
	inR, inW, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	cmd.Stdin = inR
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting worker: %v", err)
	}
	inR.Close()
	msgs := make(chan Msg, 16)
	go func() {
		dec := json.NewDecoder(stdout)
		for {
			var m Msg
			if dec.Decode(&m) != nil {
				close(msgs)
				return
			}
			msgs <- m
		}
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		inW.Close()
		cmd.Wait()
	})
	return cmd, inW, msgs
}

// awaitHello waits for the worker's hello.
func awaitHello(t *testing.T, msgs <-chan Msg) Msg {
	t.Helper()
	select {
	case m, ok := <-msgs:
		if !ok || m.Type != msgHello {
			t.Fatalf("first worker message = %+v (open=%v), want hello", m, ok)
		}
		return m
	case <-time.After(30 * time.Second):
		t.Fatal("no hello from worker")
	}
	panic("unreachable")
}

// awaitExit reaps the process and returns its exit code, failing the
// test if it does not die in time.
func awaitExit(t *testing.T, cmd *exec.Cmd, timeout time.Duration) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
		return cmd.ProcessState.ExitCode()
	case <-time.After(timeout):
		cmd.Process.Kill()
		t.Fatal("worker did not exit in time")
	}
	panic("unreachable")
}

// TestWorkerGracefulSIGTERM: a worker must treat SIGTERM as a clean
// shutdown request — deregister, close the transport, exit 0 — not die
// with a non-zero status like an unhandled signal would.
func TestWorkerGracefulSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real worker process")
	}
	cmd, inW, msgs := spawnRawWorker(t)
	hello := awaitHello(t, msgs)
	if hello.Endpoint == "" || hello.PID != cmd.Process.Pid {
		t.Fatalf("hello = %+v, want an endpoint and pid %d", hello, cmd.Process.Pid)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if code := awaitExit(t, cmd, 30*time.Second); code != 0 {
		t.Fatalf("worker exited %d on SIGTERM, want 0 (graceful shutdown)", code)
	}
	inW.Close()
}

// TestWorkerExitsOnControlEOF: a worker whose control stdin closes has
// lost its controller and must exit instead of lingering as an orphan —
// the non-Linux backstop for PDEATHSIG.
func TestWorkerExitsOnControlEOF(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real worker process")
	}
	cmd, inW, msgs := spawnRawWorker(t)
	awaitHello(t, msgs)
	inW.Close()
	if code := awaitExit(t, cmd, 30*time.Second); code == 0 {
		t.Fatal("worker exited 0 after losing its controller, want a loud non-zero exit")
	}
}

func TestConfigValidation(t *testing.T) {
	_, err := Run(Config{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "two workers") {
		t.Fatalf("Workers=1 error = %v, want a two-workers refusal", err)
	}
}

func TestTailBuffer(t *testing.T) {
	tb := &tailBuffer{max: 8}
	for _, s := range []string{"aaaa", "bbbb", "cccc"} {
		if n, err := tb.Write([]byte(s)); n != 4 || err != nil {
			t.Fatalf("Write = %d, %v", n, err)
		}
	}
	if got := tb.String(); got != "bbbbcccc" {
		t.Fatalf("tail = %q, want the last 8 bytes \"bbbbcccc\"", got)
	}
}
