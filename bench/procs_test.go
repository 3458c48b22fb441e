package bench

import (
	"testing"
	"time"

	"fsnewtop/deploy"
)

// TestAggregateProcs checks the fold from per-worker measurements into
// one Result: sums for counters, exact merge for latency samples, and
// the per-member-window throughput average. Every lane folds through it.
func TestAggregateProcs(t *testing.T) {
	opts := Options{System: SystemFSNewTOP, Transport: TransportTCPProcs, Members: 2, MsgsPerMember: 3, MsgSize: 64}
	stats := []deploy.WorkerStats{
		{
			Member: "m00", Delivered: 6, Expected: 6,
			Window:      2 * time.Second,
			LatencyNS:   []int64{int64(time.Millisecond), int64(3 * time.Millisecond)},
			NetMessages: 10, NetBytes: 1000,
			SigCacheHits: 4, SigCacheMisses: 2,
		},
		{
			Member: "m01", Delivered: 6, Expected: 6,
			Window:      4 * time.Second,
			LatencyNS:   []int64{int64(5 * time.Millisecond)},
			NetMessages: 20, NetBytes: 3000,
			SigCacheHits: 1, SigCacheMisses: 7,
		},
	}
	res := aggregate(opts, stats)

	if res.System != SystemFSNewTOP || res.Transport != TransportTCPProcs {
		t.Errorf("labels = %q/%q, want fs-newtop/tcp-procs", res.System, res.Transport)
	}
	if res.Expected != 12 || res.Delivered != 12 {
		t.Errorf("delivered %d of %d, want 12 of 12", res.Delivered, res.Expected)
	}
	if res.NetMessages != 30 || res.NetBytes != 4000 {
		t.Errorf("traffic = %d msgs / %d bytes, want 30 / 4000", res.NetMessages, res.NetBytes)
	}
	if res.SigCacheHits != 5 || res.SigCacheMisses != 9 {
		t.Errorf("sig cache = %d hits / %d misses, want 5 / 9", res.SigCacheHits, res.SigCacheMisses)
	}
	// expectedPerMember = 6; windows 2s and 4s → (6/2 + 6/4)/2 = 2.25 msgs/s.
	if got, want := res.Throughput, 2.25; got != want {
		t.Errorf("throughput = %v, want %v", got, want)
	}
	if res.Latency.Count != 3 {
		t.Errorf("latency sample count = %d, want 3 (merged across workers)", res.Latency.Count)
	}
	// Mean of 1ms, 3ms, 5ms = 3ms: the merge is over raw samples, not an
	// average of per-worker summaries.
	if res.Latency.Mean != 3*time.Millisecond {
		t.Errorf("latency mean = %v, want 3ms", res.Latency.Mean)
	}
}

// TestAggregateProcsEmpty: no stats (e.g. a run that failed before any
// worker finished) must yield zero throughput, not NaN or a panic.
func TestAggregateProcsEmpty(t *testing.T) {
	res := aggregate(Options{Members: 3, MsgsPerMember: 5}, nil)
	if res.Throughput != 0 || res.Delivered != 0 {
		t.Errorf("empty aggregate = %+v, want zero throughput and deliveries", res)
	}
	if res.Expected != 45 {
		t.Errorf("Expected = %d, want 45 (members² × msgs)", res.Expected)
	}
}
