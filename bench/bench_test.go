package bench

import (
	"strings"
	"testing"
	"time"

	"fsnewtop/internal/group"
	"fsnewtop/internal/trace"
)

// quickOpts returns a small, fast experiment configuration.
func quickOpts(sys System, members int) Options {
	return Options{
		System:        sys,
		Members:       members,
		MsgsPerMember: 10,
		MsgSize:       3,
		SendInterval:  500 * time.Microsecond,
		Timeout:       60 * time.Second,
	}
}

func TestRunNewTOP(t *testing.T) {
	res, err := Run(quickOpts(SystemNewTOP, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Expected {
		t.Fatalf("delivered %d of %d", res.Delivered, res.Expected)
	}
	if res.Latency.Count != 30 { // 3 members × 10 own messages
		t.Fatalf("latency samples = %d, want 30", res.Latency.Count)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %v", res.Throughput)
	}
	if res.NetMessages == 0 {
		t.Fatal("no network traffic recorded")
	}
}

func TestRunFSNewTOP(t *testing.T) {
	res, err := Run(quickOpts(SystemFSNewTOP, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Expected {
		t.Fatalf("delivered %d of %d", res.Delivered, res.Expected)
	}
	if res.Latency.Count != 30 {
		t.Fatalf("latency samples = %d, want 30", res.Latency.Count)
	}
}

// pacedRuns runs both systems at 4 members paced slower than one FS
// round, and fails if any KindBatch input reached a pair: at that pace
// every multicast is its own order/sign/compare/counter-sign round, so the
// two results compare the paper's per-message costs. (Under backlog the
// accumulation window legitimately amortises the FS round over several
// multicasts, which is a different claim.)
func pacedRuns(t *testing.T) (nt, fs Result) {
	t.Helper()
	paced := func(sys System) Options {
		o := quickOpts(sys, 4)
		o.MsgsPerMember = 8
		o.SendInterval = 25 * time.Millisecond
		return o
	}
	nt, err := Run(paced(SystemNewTOP))
	if err != nil {
		t.Fatal(err)
	}
	fs, err = Run(paced(SystemFSNewTOP))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range activeTrace.Load().Snapshot() {
		if ev.Kind == trace.EvReissue && ev.Note == group.KindBatch {
			t.Fatalf("a KindBatch reached %s's pair at %v pacing (FS p99 %v): the run no longer measures per-message cost",
				ev.Node, paced(SystemFSNewTOP).SendInterval, fs.Latency.P99)
		}
	}
	return nt, fs
}

// TestFSCostsMoreThanCrash is the paper's headline direction: FS-NewTOP
// pays for the fail-signal guarantee.
func TestFSCostsMoreThanCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	nt, fs := pacedRuns(t)
	if fs.Latency.Mean <= nt.Latency.Mean {
		t.Logf("warning: FS mean %v <= NewTOP mean %v (scheduling noise?)", fs.Latency.Mean, nt.Latency.Mean)
	}
	// The robust claim: FS moves at least 2x the network traffic (dual
	// submission, pair forwarding, output exchange, dual dispatch).
	if fs.NetMessages < 2*nt.NetMessages {
		t.Fatalf("FS traffic %d not >= 2x NewTOP traffic %d", fs.NetMessages, nt.NetMessages)
	}
}

func TestRunLargeMessages(t *testing.T) {
	o := quickOpts(SystemNewTOP, 2)
	o.MsgSize = 4096
	o.Bandwidth = 12_500_000
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Expected {
		t.Fatalf("delivered %d of %d", res.Delivered, res.Expected)
	}
	if res.NetBytes < uint64(res.Expected)*4096/2 {
		t.Fatalf("byte count implausible: %d", res.NetBytes)
	}
}

func TestSweepAndFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := quickOpts(0, 0)
	base.MsgsPerMember = 5
	rows := RunFig6(base, []int{2, 3})
	if len(rows) != 2 || rows[0].X != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	out := FormatFig6(rows)
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "overhead") {
		t.Fatalf("Fig6 table:\n%s", out)
	}
	out = FormatFig7(RunFig7(base, []int{2}))
	if !strings.Contains(out, "Figure 7") {
		t.Fatalf("Fig7 table:\n%s", out)
	}
	fig8 := base
	fig8.MsgsPerMember = 3
	rows = RunFig8(fig8, []int{3})
	out = FormatFig8(rows)
	if !strings.Contains(out, "Figure 8") {
		t.Fatalf("Fig8 table:\n%s", out)
	}
}

func TestSystemString(t *testing.T) {
	if SystemNewTOP.String() != "NewTOP" || SystemFSNewTOP.String() != "FS-NewTOP" {
		t.Fatal("system names changed")
	}
	if System(9).String() == "" {
		t.Fatal("unknown system has empty name")
	}
}

func TestUnknownSystemRejected(t *testing.T) {
	if _, err := Run(Options{System: System(42)}); err == nil {
		t.Fatal("unknown system accepted")
	}
}

// TestMessageAmplification quantifies the fail-signal traffic multiplier:
// dual submission, pair forwarding, candidate exchange and dual dispatch
// should put FS-NewTOP's per-multicast message count at several times the
// crash system's. EXPERIMENTS.md cites this figure.
func TestMessageAmplification(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	nt, fs := pacedRuns(t)
	multicasts := float64(nt.Members * nt.MsgsPerMember)
	ntPer := float64(nt.NetMessages) / multicasts
	fsPer := float64(fs.NetMessages) / multicasts
	t.Logf("messages per multicast: NewTOP %.1f, FS-NewTOP %.1f (x%.1f)", ntPer, fsPer, fsPer/ntPer)
	if fsPer < 2*ntPer {
		t.Fatalf("FS amplification %.1f/%.1f below 2x", fsPer, ntPer)
	}
}
