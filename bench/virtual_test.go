package bench

import (
	"strings"
	"testing"
	"time"

	"fsnewtop/internal/chaos"
	"fsnewtop/internal/clock"
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

// TestChaosVirtualLane: one chaos seed on a virtual clock through
// RunChaos — verdict green, far less wall time than simulated time, and
// the parked trace stamped from the run's clock: the timeline spans the
// simulated window, not the wall time the run took.
func TestChaosVirtualLane(t *testing.T) {
	v := clock.NewVirtual()
	defer v.Stop()
	wall := clock.NewReal()
	wallStart := wall.Now()
	rep, err := RunChaos(chaos.Options{Seed: 1, Duration: time.Second, Clock: v})
	wallElapsed := wall.Since(wallStart)
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if !rep.Passed() {
		t.Fatalf("virtual seed 1 red: %s\n%+v", rep.Verdict(), rep.Violations)
	}
	if !raceDetector && wallElapsed >= rep.Elapsed {
		t.Fatalf("no acceleration: wall %v vs simulated %v", wallElapsed, rep.Elapsed)
	}
	evs := activeTrace.Load().Snapshot()
	if len(evs) == 0 {
		t.Fatal("the run traced nothing")
	}
	if span := time.Duration(evs[len(evs)-1].At - evs[0].At); span < time.Second {
		t.Fatalf("the timeline spans %v, not the simulated 1s window (wall %v): stamped from the wall clock?", span, wallElapsed)
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
