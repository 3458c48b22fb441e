package deploy

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fsnewtop/cluster"
	"fsnewtop/internal/clock"
)

// TestPaceSendsHoldsTheRate pins the one pacing rule: send k is due at
// start + k·interval whatever the sends before it cost, so n sends occupy
// exactly (n-1)·interval of clock time. A submit that takes part of an
// interval delays nothing; one that overruns two intervals is caught up
// back to back and the rate is regained. (A loop that sleeps a full
// interval after every submit drifts by the submit time and fails this.)
// The sender is a callback on the virtual clock, which runs in no time, so
// a submit's cost is a step of the sender's own skewed view of it.
func TestPaceSendsHoldsTheRate(t *testing.T) {
	v := clock.NewVirtual()
	defer v.Stop()
	clk := clock.NewSkewed(v)
	const interval = 10 * time.Millisecond
	ms := time.Millisecond
	cost := []time.Duration{3 * ms, 3 * ms, 25 * ms, 0, 3 * ms, 3 * ms, 0, 3 * ms}
	want := []time.Duration{0, 10 * ms, 20 * ms, 45 * ms, 45 * ms, 50 * ms, 60 * ms, 70 * ms}

	start := clk.Now()
	var at []time.Duration
	err := <-paceSends(clk, start, len(cost), interval, nil, func(k int) error {
		at = append(at, clk.Since(start))
		clk.Step(cost[k]) // a submit that takes clock time
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(at) != len(want) {
		t.Fatalf("made %d sends, want %d", len(at), len(want))
	}
	for k := range want {
		if at[k] != want[k] {
			t.Errorf("send %d at %v, want %v (all sends: %v)", k, at[k], want[k], at)
		}
	}
	if span := at[len(at)-1] - at[0]; span != time.Duration(len(cost)-1)*interval {
		t.Errorf("%d sends occupied %v of clock time, want exactly %v", len(cost), span, time.Duration(len(cost)-1)*interval)
	}
}

// TestRunWorkloadRecordsSendError: a member whose multicast is refused
// must end its workload at once with the cause in its stats, instead of
// waiting for deliveries that can no longer come.
func TestRunWorkloadRecordsSendError(t *testing.T) {
	cl, err := cluster.New(cluster.WithMembers("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.JoinAll("bench"); err != nil {
		t.Fatal(err)
	}
	cl.KillMember("a") // its stack is closed: every multicast now fails

	spec := RunSpec{}
	spec.FillDefaults(2)
	clk := clock.NewReal()
	w := StartWorkload(clk, clk.Now(), cl.Member("a"), spec, 2, nil)
	var delivered atomic.Int64
	done := make(chan WorkerStats, 1)
	clock.Observe(clk, func(time.Time) bool {
		if !w.Poll(&delivered) {
			return true
		}
		done <- w.Stats()
		return false
	})
	select {
	case stats := <-done:
		if !strings.Contains(stats.SendError, "multicast seq 1") {
			t.Fatalf("SendError = %q, want it to name the first failed multicast", stats.SendError)
		}
		if stats.Window != 0 {
			t.Fatalf("Window = %v on a run that never completed, want 0", stats.Window)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the workload did not end after its member's multicast failed")
	}
}

func TestSeqCodec(t *testing.T) {
	for _, size := range []int{3, 4, 64, 10240} {
		for _, seq := range []int{1, 255, 65535, 1 << 20} {
			p := encodeSeq(seq, size)
			if len(p) != size {
				t.Fatalf("size %d: payload length %d", size, len(p))
			}
			if got := decodeSeq(p); got != seq {
				t.Fatalf("size %d seq %d: decoded %d", size, seq, got)
			}
		}
	}
	if decodeSeq([]byte{1}) != -1 {
		t.Fatal("short payload decoded")
	}
}
