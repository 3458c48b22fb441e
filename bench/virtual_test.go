package bench

import (
	"strings"
	"testing"
	"time"
)

// TestVirtualSoakAccelerates runs 36 simulated protocol-seconds and checks
// the run (a) covered the simulated span on the virtual timeline, (b) took
// far less wall time than realtime, and (c) kept the delivery-equivalence
// oracle green.
func TestVirtualSoakAccelerates(t *testing.T) {
	vr, err := RunVirtualSoak(Options{
		Members: 4,
		Seed:    7,
	}, 0.01) // 36 simulated seconds
	if err != nil {
		t.Fatalf("RunVirtualSoak: %v", err)
	}
	if vr.SimElapsed < 30*time.Second {
		t.Fatalf("simulated only %v of protocol time, want >= 30s", vr.SimElapsed)
	}
	if vr.WallElapsed >= vr.SimElapsed/2 {
		t.Fatalf("no acceleration: wall %v vs simulated %v", vr.WallElapsed, vr.SimElapsed)
	}
	if vr.OrderMismatch != "" {
		t.Fatalf("delivery order diverged: %s", vr.OrderMismatch)
	}
	if vr.Delivered != vr.Expected {
		t.Fatalf("delivered %d of %d", vr.Delivered, vr.Expected)
	}
	t.Logf("simulated %v in %v wall (%.0fx)", vr.SimElapsed.Round(time.Second),
		vr.WallElapsed.Round(time.Millisecond), vr.Speedup)
}

// TestVirtualRefusesRealTransport checks the loud refusal: virtual time
// cannot pace real sockets.
func TestVirtualRefusesRealTransport(t *testing.T) {
	_, err := Run(Options{
		System:        SystemFSNewTOP,
		Members:       3,
		MsgsPerMember: 1,
		Transport:     TransportTCP,
		Virtual:       true,
	})
	if err == nil {
		t.Fatal("Run accepted Virtual over tcp")
	}
	if !strings.Contains(err.Error(), "virtual time cannot pace real sockets") {
		t.Fatalf("refusal does not name the conflict: %v", err)
	}
}

// TestChaosVirtualLane: one chaos seed on the virtual timeline through
// the bench facade — verdict green, clock bookkeeping sane, and the run's
// trace stamped from its clock: the timeline spans the simulated window,
// not the wall time the run took.
func TestChaosVirtualLane(t *testing.T) {
	rep, err := RunChaos(ChaosOptions{
		Seed:     1,
		Duration: time.Second,
		Virtual:  true,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if !rep.Passed {
		t.Fatalf("virtual seed 1 red: %s\n%+v", rep.Verdict, rep.Violations)
	}
	if !rep.Virtual {
		t.Fatal("report does not record the virtual clock")
	}
	if !raceDetector && rep.WallElapsed >= rep.Elapsed {
		t.Fatalf("no acceleration: wall %v vs simulated %v", rep.WallElapsed, rep.Elapsed)
	}
	evs := activeTrace.Load().Snapshot()
	if len(evs) == 0 {
		t.Fatal("the run traced nothing")
	}
	if span := time.Duration(evs[len(evs)-1].At - evs[0].At); span < time.Second {
		t.Fatalf("the timeline spans %v, not the simulated 1s window (wall %v): stamped from the wall clock?", span, rep.WallElapsed)
	}
}

// TestChaosSkewNeedsVirtual: the bench facade refuses skew off the
// virtual timeline before reaching the chaos engine.
func TestChaosSkewNeedsVirtual(t *testing.T) {
	if _, err := RunChaos(ChaosOptions{Seed: 1, Skew: true}); err == nil {
		t.Fatal("RunChaos accepted Skew without Virtual")
	} else if !strings.Contains(err.Error(), "Virtual") {
		t.Fatalf("refusal should name the Virtual requirement: %v", err)
	}
	if _, err := MinimizeChaos(ChaosOptions{Seed: 1, Skew: true}); err == nil {
		t.Fatal("MinimizeChaos accepted Skew without Virtual")
	}
}

// TestMinimizeChaosGreenSeedRefuses: shrinking a passing seed is a usage
// error, reported as such rather than returning an empty shrink.
func TestMinimizeChaosGreenSeedRefuses(t *testing.T) {
	_, err := MinimizeChaos(ChaosOptions{Seed: 1, Duration: time.Second, Virtual: true})
	if err == nil {
		t.Fatal("MinimizeChaos shrank a green seed")
	}
	if !strings.Contains(err.Error(), "no violation to shrink") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestVirtualSoakFormat exercises the report renderer.
func TestVirtualSoakFormat(t *testing.T) {
	vr, err := RunVirtualSoak(Options{Members: 3, Seed: 3}, 0.002)
	out := FormatVirtualSoak(vr, err)
	for _, want := range []string{"Accelerated soak", "simulated", "equivalence", "faster than realtime"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
