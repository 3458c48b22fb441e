package bench

import (
	"strings"
	"testing"
	"time"
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

// TestFSCostsMoreThanCrash is the paper's headline direction: FS-NewTOP
// pays latency for the fail-signal guarantee.
func TestFSCostsMoreThanCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	nt, err := Run(quickOpts(SystemNewTOP, 4))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Run(quickOpts(SystemFSNewTOP, 4))
	if err != nil {
		t.Fatal(err)
	}
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
	nt, err := Run(quickOpts(SystemNewTOP, 4))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Run(quickOpts(SystemFSNewTOP, 4))
	if err != nil {
		t.Fatal(err)
	}
	multicasts := float64(4 * 10)
	ntPer := float64(nt.NetMessages) / multicasts
	fsPer := float64(fs.NetMessages) / multicasts
	t.Logf("messages per multicast: NewTOP %.1f, FS-NewTOP %.1f (x%.1f)", ntPer, fsPer, fsPer/ntPer)
	if fsPer < 2*ntPer {
		t.Fatalf("FS amplification %.1f/%.1f below 2x", fsPer, ntPer)
	}
}
