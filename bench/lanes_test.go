package bench

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"fsnewtop/deploy"
)

// workerEnvVar flips the test binary into deploy-worker mode. The
// "tcp-procs" lane re-executes its own binary with -worker; under `go
// test` that binary is this one, so a test that runs the lane sets the
// variable for its children and TestMain serves the worker side before the
// testing package ever parses the -worker argument.
const workerEnvVar = "FSNEWTOP_BENCH_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnvVar) == "1" {
		if err := deploy.RunWorker(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestLaneParity runs one spec of each system through the in-process tcp
// lane and through the multi-process lane. Both are the same bring-up and
// the same workload loop, so both must hand the same fold the same shape
// of measurements: one WorkerStats per member, every delivery made, one
// latency sample per own message, a completion window — and signature
// checks only where something is signed: FS-NewTOP's pairs, never crash
// NewTOP.
func TestLaneParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	t.Setenv(workerEnvVar, "1")
	for _, lane := range []string{TransportTCP, TransportTCPProcs} {
		t.Run(lane, func(t *testing.T) {
			for _, sys := range []System{SystemNewTOP, SystemFSNewTOP} {
				t.Run(sys.String(), func(t *testing.T) {
					opts := Options{
						System:        sys,
						Transport:     lane,
						Members:       4,
						MsgsPerMember: 5,
						MsgSize:       64,
						SendInterval:  5 * time.Millisecond,
						TraceDir:      t.TempDir(),
					}
					res, stats, err := run(opts)
					if err != nil {
						t.Fatal(err)
					}
					if len(stats) != opts.Members {
						t.Fatalf("%d member stats, want %d", len(stats), opts.Members)
					}
					for _, ws := range stats {
						if ws.Delivered != ws.Expected || ws.Expected != opts.Members*opts.MsgsPerMember {
							t.Errorf("%s: delivered %d of %d", ws.Member, ws.Delivered, ws.Expected)
						}
						if len(ws.LatencyNS) != opts.MsgsPerMember {
							t.Errorf("%s: %d latency samples, want %d (one per own message)", ws.Member, len(ws.LatencyNS), opts.MsgsPerMember)
						}
						if ws.Window <= 0 || ws.SendError != "" {
							t.Errorf("%s: window %v, send error %q", ws.Member, ws.Window, ws.SendError)
						}
					}
					if res.System != sys || res.Transport != lane || res.Delivered != res.Expected {
						t.Errorf("folded result: %v on %q, delivered %d of %d", res.System, res.Transport, res.Delivered, res.Expected)
					}
					if res.Latency.Count != opts.Members*opts.MsgsPerMember || res.Throughput <= 0 {
						t.Errorf("folded result: %d latency samples, throughput %v", res.Latency.Count, res.Throughput)
					}
					if res.NetMessages == 0 {
						t.Error("folded result: no net messages")
					}
					if signs := sys == SystemFSNewTOP; (res.SigCacheMisses > 0) != signs {
						t.Errorf("folded result: %d signature checks (%v signs: %v)", res.SigCacheMisses, sys, signs)
					}
				})
			}
		})
	}
}

// TestRefusedCombinations: every combination of options no lane can run is
// refused by the library — not by fsbench's flag parsing — before anything
// is measured, as ErrRefused, with a message naming both sides of the
// conflict.
func TestRefusedCombinations(t *testing.T) {
	fs := func(o Options) Options {
		o.System, o.MsgsPerMember = SystemFSNewTOP, 1
		return o
	}
	cases := []struct {
		name   string
		run    func() error
		names  []string
		spawns bool // reaches cluster.NewSolo, in real worker processes
	}{
		{name: "virtual x tcp", names: []string{"Virtual", `"tcp"`},
			run: func() error { _, err := Run(fs(Options{Virtual: true, Transport: TransportTCP})); return err }},
		{name: "virtual x procs", names: []string{"Virtual", `"tcp-procs"`},
			run: func() error { _, err := Run(fs(Options{Virtual: true, Transport: TransportTCPProcs})); return err }},
		{name: "procs x RSA", names: []string{`"tcp-procs"`, "RSA"}, spawns: true,
			run: func() error { _, err := Run(fs(Options{RSA: true, Transport: TransportTCPProcs})); return err }},
		{name: "procs x one worker", names: []string{`"tcp-procs"`, "Members 1"},
			run: func() error { _, err := Run(fs(Options{Members: 1, Transport: TransportTCPProcs})); return err }},
		{name: "skew without virtual", names: []string{"Skew", "Virtual"},
			run: func() error { _, err := RunChaos(ChaosOptions{Seed: 1, Skew: true}); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.spawns {
				if testing.Short() {
					t.Skip("spawns real worker processes")
				}
				t.Setenv(workerEnvVar, "1")
			}
			err := tc.run()
			if !errors.Is(err, ErrRefused) {
				t.Fatalf("err = %v, want ErrRefused", err)
			}
			for _, n := range tc.names {
				if !strings.Contains(err.Error(), n) {
					t.Errorf("refusal %q does not name %s", err, n)
				}
			}
		})
	}
}

// TestOnlySoloRefusalsAreRefusals: a worker that fails to configure for
// any reason but cluster.NewSolo refusing the spec is a failed run, not a
// usage error.
func TestOnlySoloRefusalsAreRefusals(t *testing.T) {
	broken := &deploy.WorkerError{Member: "m01", Phase: "configure",
		Message: "deploy: seeding address book: duplicate address"}
	if err := markRefused(broken); errors.Is(err, ErrRefused) || !errors.Is(err, error(broken)) {
		t.Fatalf("a broken manifest came back as %v", err)
	}
	refused := &deploy.WorkerError{Member: "m01", Phase: "configure",
		Message: "cluster: solo bring-up refused: HMAC-only"}
	if err := markRefused(refused); !errors.Is(err, ErrRefused) {
		t.Fatalf("a NewSolo refusal came back as %v", err)
	}
}
