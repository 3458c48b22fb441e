package bench

import (
	"fmt"
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
// multicasts, which is a different claim.) Both run on virtual time,
// which is exact: a round takes the same protocol time however busy the
// host is — so no batch forms behind a slow round — and each run's
// latency and traffic are the same every time.
func pacedRuns(t *testing.T) (nt, fs Result) {
	t.Helper()
	paced := func(sys System) Options {
		o := quickOpts(sys, 4)
		o.MsgsPerMember = 8
		o.SendInterval = 25 * time.Millisecond
		o.Virtual = true
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
		t.Fatalf("FS mean latency %v <= NewTOP mean %v: on one exact clock the pair's order/compare/counter-sign round must cost time", fs.Latency.Mean, nt.Latency.Mean)
	}
	// The robust claim: FS moves at least 2x the network traffic (dual
	// submission, pair forwarding, output exchange, dual dispatch).
	if fs.NetMessages < 2*nt.NetMessages {
		t.Fatalf("FS traffic %d not >= 2x NewTOP traffic %d", fs.NetMessages, nt.NetMessages)
	}
}

// TestPacedRunsAreExact: on virtual time a run is one exact timeline —
// every workload starts at one instant, latency is taken at each
// delivery's hand-off, and the traffic counters at the instant of the last
// delivery — so repeated paced runs of either system read the same
// traffic, latency and throughput to the nanosecond and the message.
func TestPacedRunsAreExact(t *testing.T) {
	runs := 20
	if testing.Short() {
		runs = 3
	}
	type reading struct {
		msgs, bytes uint64
		lat         string
		tput        float64
	}
	read := func(r Result) reading {
		return reading{r.NetMessages, r.NetBytes, fmt.Sprint(r.Latency), r.Throughput}
	}
	nt0, fs0 := pacedRuns(t)
	for i := 1; i < runs; i++ {
		nt, fs := pacedRuns(t)
		if read(nt) != read(nt0) || read(fs) != read(fs0) {
			t.Fatalf("run %d differs from the first:\n NewTOP %+v\n  first %+v\n FS     %+v\n  first %+v", i, read(nt), read(nt0), read(fs), read(fs0))
		}
	}
	t.Logf("%d runs each: NewTOP %d msgs, mean %v; FS %d msgs, mean %v", runs, nt0.NetMessages, nt0.Latency.Mean, fs0.NetMessages, fs0.Latency.Mean)
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
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "(10 members") {
		t.Fatalf("Fig8 table:\n%s", out)
	}

	// A multi-process sweep renders through the same table, both columns,
	// under the group size it ran at.
	procs := func(sys System, tput float64) Result {
		return Result{System: sys, Transport: TransportTCPProcs, Members: 4, Throughput: tput}
	}
	out = FormatFig8([]Row{
		{X: 1024, NewTOP: procs(SystemNewTOP, 1968), FSNewTOP: procs(SystemFSNewTOP, 1405)},
		{X: 2048, NewTOP: procs(SystemNewTOP, 0), FSNewTOPErr: "deploy: worker m03 failed during run phase"},
	})
	for _, want := range []string{"(4 members", "NewTOP", "FS-NewTOP", "1968", "1405", "563", "run error: deploy: worker m03"} {
		if !strings.Contains(out, want) {
			t.Errorf("tcp-procs Fig8 table lacks %q:\n%s", want, out)
		}
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
