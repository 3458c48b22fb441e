package bench

import (
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRunStallReturnsStructuredError pins the round-progress watchdog: a
// run whose cluster stops delivering must come back quickly with
// *ErrStalled — per-member delivered counts, the quiet window, and a
// trace dump on disk — instead of blocking until the wall timeout with
// no diagnosis. The stall is forced by a network latency far beyond the
// watchdog window, so no delivery can ever land.
func TestRunStallReturnsStructuredError(t *testing.T) {
	dir := t.TempDir()
	start := time.Now()
	_, err := Run(Options{
		System:        SystemNewTOP,
		Members:       2,
		MsgsPerMember: 2,
		NetLatency:    time.Hour, // nothing will ever arrive
		StallAfter:    time.Second,
		Timeout:       2 * time.Minute, // must NOT be what bounds this run
		TraceDir:      dir,
	})
	elapsed := time.Since(start)
	var stalled *ErrStalled
	if !errors.As(err, &stalled) {
		t.Fatalf("err = %v, want *ErrStalled", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("stall verdict took %v; it must beat the wall timeout by far", elapsed)
	}
	if stalled.Members != 2 || len(stalled.PerMember) != 2 {
		t.Fatalf("per-member progress missing: %+v", stalled)
	}
	if stalled.Delivered != 0 || stalled.Expected != 8 {
		t.Fatalf("delivered/expected = %d/%d, want 0/8", stalled.Delivered, stalled.Expected)
	}
	if stalled.Quiet != time.Second {
		t.Fatalf("quiet window = %v, want 1s", stalled.Quiet)
	}
	if stalled.DumpPath == "" {
		t.Fatal("stall did not record a trace dump path")
	}
	b, readErr := os.ReadFile(stalled.DumpPath)
	if readErr != nil {
		t.Fatalf("trace dump unreadable: %v", readErr)
	}
	if !strings.Contains(string(b), "goroutine stacks") {
		t.Fatal("trace dump is missing the goroutine stack section")
	}
	if !strings.Contains(err.Error(), stalled.DumpPath) {
		t.Fatal("ErrStalled message does not mention the dump path")
	}
}

// TestRunStallDumpSuppressed checks NoStallDump leaves the structured
// error intact but writes nothing.
func TestRunStallDumpSuppressed(t *testing.T) {
	_, err := Run(Options{
		System:        SystemNewTOP,
		Members:       2,
		MsgsPerMember: 1,
		NetLatency:    time.Hour,
		StallAfter:    time.Second,
		NoStallDump:   true,
	})
	var stalled *ErrStalled
	if !errors.As(err, &stalled) {
		t.Fatalf("err = %v, want *ErrStalled", err)
	}
	if stalled.DumpPath != "" {
		t.Fatalf("dump written despite NoStallDump: %s", stalled.DumpPath)
	}
}

// TestVirtualStallVerdictIsExact pins the cause of false "stalled"
// verdicts on virtual time: progress was counted by goroutines draining
// the members' deliveries, and a drain holding a delivery it had taken but
// not yet counted was outrun by the clock's driver, whose idle ticks carry
// protocol time past the watchdog window in a few wall milliseconds. The
// workloads now take deliveries, and the watchdog checks progress, on the
// driver. So with a window just above the send interval — the largest gap
// between deliveries in a paced run — both systems complete, at the same
// end instant every time, whatever GOMAXPROCS is.
func TestVirtualStallVerdictIsExact(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sys := range []System{SystemNewTOP, SystemFSNewTOP} {
		var first time.Duration
		for i := 0; i < 20; i++ {
			runtime.GOMAXPROCS(1 + i%4)
			o := quickOpts(sys, 4)
			o.MsgsPerMember = 8
			o.SendInterval = 25 * time.Millisecond
			o.StallAfter = 30 * time.Millisecond
			o.Virtual = true
			o.NoStallDump = true
			res, err := Run(o)
			if err != nil {
				t.Fatalf("%v run %d: %v", sys, i, err)
			}
			if i == 0 {
				first = res.Elapsed
			} else if res.Elapsed != first {
				t.Fatalf("%v run %d ended at %v, the first at %v", sys, i, res.Elapsed, first)
			}
		}
	}
}
