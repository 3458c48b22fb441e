package bench

import (
	"fmt"
	"strings"
	"time"
)

// VirtualSoakResult reports one time-accelerated soak: a long stretch of
// simulated protocol time executed in however little wall time the
// protocol's own computation costs.
type VirtualSoakResult struct {
	SoakResult
	// SimElapsed is the protocol time the run covered (= Result.Elapsed,
	// which is on the virtual clock).
	SimElapsed time.Duration
	// Speedup is SimElapsed / WallElapsed: how much faster than realtime
	// the soak ran.
	Speedup float64
}

// RunVirtualSoak executes hours of simulated FS protocol time on an
// auto-advancing virtual clock, with the delivery-equivalence oracle armed:
// every member must deliver the identical (origin, seq) sequence. The
// workload shape trades per-message density for covered protocol time —
// what an accelerated soak is for is the long-horizon behaviours
// (retransmission churn, GC retention, deadline drift), not peak
// throughput, which the real-time fig lanes measure.
func RunVirtualSoak(opts Options, hours float64) (VirtualSoakResult, error) {
	if hours <= 0 {
		hours = 1
	}
	if opts.System == 0 {
		opts.System = SystemFSNewTOP
	}
	if opts.Members == 0 {
		opts.Members = 4
	}
	if opts.SendInterval == 0 {
		opts.SendInterval = 500 * time.Millisecond
	}
	if opts.Delta == 0 {
		// Virtual time makes δ free: no scheduler noise exists on the
		// virtual timeline, so the paper-faithful bound does not need the
		// loaded-host inflation the figure lanes' default applies.
		opts.Delta = 250 * time.Millisecond
	}
	simFor := time.Duration(hours * float64(time.Hour))
	opts.MsgsPerMember = int(simFor / opts.SendInterval)
	if opts.MsgsPerMember < 1 {
		opts.MsgsPerMember = 1
	}
	if opts.Timeout == 0 {
		// The timeout is virtual time too: the workload itself takes
		// simFor, so bound the run at twice that plus settle margin.
		opts.Timeout = 2*simFor + 10*time.Minute
	}
	opts.Virtual = true

	sr, err := RunSoak(opts)
	vr := VirtualSoakResult{SoakResult: sr, SimElapsed: sr.Elapsed}
	if sr.WallElapsed > 0 {
		vr.Speedup = float64(sr.Elapsed) / float64(sr.WallElapsed)
	}
	if err != nil {
		return vr, err
	}
	if sr.OrderMismatch != "" {
		return vr, fmt.Errorf("bench: delivery equivalence violated in virtual soak: %s", sr.OrderMismatch)
	}
	if sr.Delivered < sr.Expected {
		return vr, fmt.Errorf("bench: virtual soak incomplete: delivered %d of %d", sr.Delivered, sr.Expected)
	}
	return vr, nil
}

// FormatVirtualSoak renders one accelerated soak report.
func FormatVirtualSoak(vr VirtualSoakResult, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Accelerated soak — %v, %d members, %d msgs/member, virtual clock\n",
		vr.System, vr.Members, vr.MsgsPerMember)
	if err != nil {
		fmt.Fprintf(&b, "  run error: %v\n", err)
	}
	fmt.Fprintf(&b, "  simulated   %v of protocol time\n", vr.SimElapsed.Round(time.Second))
	fmt.Fprintf(&b, "  wall        %v (%.0fx faster than realtime)\n", vr.WallElapsed.Round(time.Millisecond), vr.Speedup)
	fmt.Fprintf(&b, "  delivered   %d of %d\n", vr.Delivered, vr.Expected)
	if vr.OrderMismatch == "" {
		fmt.Fprintf(&b, "  equivalence identical delivery order at all %d members\n", vr.Members)
	} else {
		fmt.Fprintf(&b, "  equivalence VIOLATED: %s\n", vr.OrderMismatch)
	}
	fmt.Fprintf(&b, "  latency     %v\n", vr.Latency)
	fmt.Fprintf(&b, "  throughput  %.1f msgs/protocol-sec per member\n", vr.Throughput)
	fmt.Fprintf(&b, "  fabric      %d messages, %d bytes\n", vr.NetMessages, vr.NetBytes)
	fmt.Fprintf(&b, "  goroutines  %d before, %d peak, %d after\n",
		vr.GoroutinesBefore, vr.GoroutinesPeak, vr.GoroutinesAfter)
	return b.String()
}
