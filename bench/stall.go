package bench

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/trace"
)

// MemberProgress is one member's delivery state at the moment a stall was
// declared.
type MemberProgress struct {
	// Name is the member's logical name.
	Name string
	// Delivered counts deliveries observed at this member.
	Delivered int
	// PairFailed reports whether the member's FS pair had fail-signalled
	// (always false for crash-tolerant NewTOP members).
	PairFailed bool
}

// ErrStalled reports that a run stopped making delivery progress long
// before its wall timeout: no member delivered anything for Quiet, while
// Delivered < Expected. It carries the per-node delivery counts and the
// path of the trace dump (merged protocol event timeline plus goroutine
// stacks) written when the stall was declared — the inputs a wedge
// post-mortem starts from, instead of a bare "timed out".
type ErrStalled struct {
	System    System
	Transport string
	Members   int
	// Delivered and Expected are cluster-wide delivery totals.
	Delivered, Expected int
	// PerMember is each member's progress, in member order.
	PerMember []MemberProgress
	// Quiet is how long the cluster went without a single delivery before
	// the stall was declared (the k·Δ window, see Options.StallAfter).
	Quiet time.Duration
	// DumpPath locates the trace dump, or is empty when dumping was
	// disabled (Options.NoStallDump) or failed.
	DumpPath string
}

// Error implements error.
func (e *ErrStalled) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bench: %v/%s run (%d members) stalled: no delivery for %v, delivered %d of %d [",
		e.System, e.Transport, e.Members, e.Quiet.Round(time.Millisecond), e.Delivered, e.Expected)
	for i, m := range e.PerMember {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", m.Name, m.Delivered)
		if m.PairFailed {
			b.WriteString("(failed)")
		}
	}
	b.WriteByte(']')
	if e.DumpPath != "" {
		fmt.Fprintf(&b, " trace dump: %s", e.DumpPath)
	}
	return b.String()
}

// activeTrace is the registry of the currently (or most recently) running
// experiment, kept for on-demand dumps (fsbench's SIGQUIT handler).
var activeTrace atomic.Pointer[trace.Registry]

// DumpTrace writes the active (or most recent) run's protocol trace —
// merged event timeline plus goroutine stacks — to a file in dir (""
// selects the OS temp directory) and returns its path. It is safe to call
// from a signal handler while a run is in flight; it fails only when no
// run has started yet.
func DumpTrace(dir, label string) (string, error) {
	reg := activeTrace.Load()
	if reg == nil {
		return "", fmt.Errorf("bench: no experiment trace to dump (no run started)")
	}
	return reg.Dump(dir, label)
}

// stallMonitor watches a run's aggregate delivery count and closes
// stalled when it stops moving for quiet short of want, on the run's
// clock. It is a chain of clock callbacks, so under a virtual clock the
// watchdog window is protocol time, and every check runs on the driver at
// its instant: the verdict is exact, and an accelerated soak still detects
// wedges. progress need not be monotonic: any change counts as a move.
// Closing stop ends the chain.
func stallMonitor(clk clock.Clock, progress func() int, want int, quiet time.Duration, stop <-chan struct{}, stalled chan<- struct{}) {
	interval := max(quiet/20, time.Millisecond) // sub-ms polls buy nothing
	last, lastMove := progress(), clk.Now()
	var check func()
	check = func() {
		select {
		case <-stop:
			return
		default:
		}
		n := progress()
		switch {
		case n >= want:
			return // every delivery is made; the workloads finish the run
		case n != last:
			last, lastMove = n, clk.Now()
		case clk.Since(lastMove) >= quiet:
			close(stalled)
			return
		}
		clk.AfterFunc(interval, check)
	}
	clk.AfterFunc(interval, check)
}
