// Benchmarks regenerating the paper's evaluation (Section 4), one per
// figure, plus ablations for the design choices DESIGN.md calls out.
//
// Each figure benchmark runs the paper's workload — every member
// multicasts messages for symmetric total ordering at a regular interval —
// at a sweep of the figure's x-axis, for both NewTOP (crash-tolerant
// baseline) and FS-NewTOP (Byzantine-tolerant extension), and reports:
//
//	ms/msg    mean ordering latency (Figure 6's y-axis)
//	msgs/sec  ordered throughput at a member (Figures 7 and 8's y-axis)
//
// Full-resolution tables (all x values, paper-scale message counts) come
// from: go run ./cmd/fsbench -exp all -msgs 1000
package fsnewtop_test

import (
	"fmt"
	"testing"
	"time"

	"fsnewtop/bench"
	"fsnewtop/internal/sig"
)

// figureOpts is the shared benchmark configuration: small message counts
// so a full `go test -bench=.` stays laptop-scale.
func figureOpts(sys bench.System, members int) bench.Options {
	return bench.Options{
		System:        sys,
		Members:       members,
		MsgsPerMember: 20,
		MsgSize:       3,
		SendInterval:  2 * time.Millisecond,
		Timeout:       8 * time.Minute,
	}
}

// runFigure executes the experiment once per benchmark iteration and
// reports the figure metrics.
func runFigure(b *testing.B, opts bench.Options) {
	b.Helper()
	var lastLatency time.Duration
	var lastTput float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		lastLatency = res.Latency.Mean
		lastTput = res.Throughput
	}
	b.ReportMetric(float64(lastLatency.Microseconds())/1000, "ms/msg")
	b.ReportMetric(lastTput, "msgs/sec")
}

// BenchmarkFig6OrderLatency regenerates Figure 6: symmetric total order
// latency for 3-byte messages, group sizes 2..10.
func BenchmarkFig6OrderLatency(b *testing.B) {
	for _, members := range []int{2, 4, 6, 8, 10} {
		for _, sys := range []bench.System{bench.SystemNewTOP, bench.SystemFSNewTOP} {
			b.Run(fmt.Sprintf("%v/members=%d", sys, members), func(b *testing.B) {
				runFigure(b, figureOpts(sys, members))
			})
		}
	}
}

// BenchmarkFig7Throughput regenerates Figure 7: throughput vs group size
// with the paper's default 10-worker request pool. The paper sweeps 2..15;
// the sharded netsim dispatcher lets the sweep extend to 25 and 40 members
// (40 FS members = 80 replica processes, 6320 directed links) within the
// same per-run timeout.
func BenchmarkFig7Throughput(b *testing.B) {
	for _, members := range []int{2, 6, 10, 15, 25, 40} {
		for _, sys := range []bench.System{bench.SystemNewTOP, bench.SystemFSNewTOP} {
			b.Run(fmt.Sprintf("%v/members=%d", sys, members), func(b *testing.B) {
				opts := figureOpts(sys, members)
				opts.MsgsPerMember = 15
				if members >= 15 {
					// The single-core host serves 2n replica processes in
					// the FS runs; keep the largest sweep points bounded.
					opts.MsgsPerMember = 8
				}
				if members >= 25 {
					opts.MsgsPerMember = 5
					opts.SendInterval = 4 * time.Millisecond
				}
				runFigure(b, opts)
			})
		}
	}
}

// BenchmarkFig8MessageSize regenerates Figure 8: throughput vs message
// size for a 10-member group over a 100 Mb/s-equivalent fabric.
func BenchmarkFig8MessageSize(b *testing.B) {
	for _, size := range []int{3, 2048, 6144, 10240} {
		for _, sys := range []bench.System{bench.SystemNewTOP, bench.SystemFSNewTOP} {
			b.Run(fmt.Sprintf("%v/size=%d", sys, size), func(b *testing.B) {
				opts := figureOpts(sys, 10)
				opts.MsgsPerMember = 10
				opts.MsgSize = size
				opts.Bandwidth = 12_500_000
				runFigure(b, opts)
			})
		}
	}
}

// BenchmarkDeltaAblation sweeps the sync-link bound δ: the compare
// deadline 2δ+κπ+στ is a timeout, not a wait, so failure-free latency
// must be essentially flat in δ — the design property that lets FS-NewTOP
// use generous bounds without paying for them.
func BenchmarkDeltaAblation(b *testing.B) {
	for _, delta := range []time.Duration{100 * time.Millisecond, time.Second, 5 * time.Second} {
		b.Run(fmt.Sprintf("delta=%v", delta), func(b *testing.B) {
			opts := figureOpts(bench.SystemFSNewTOP, 4)
			opts.Delta = delta
			runFigure(b, opts)
		})
	}
}

// BenchmarkSigningSchemes measures the output-path crypto the paper names
// as one of FS-NewTOP's three latency sources: MD5-with-RSA (the paper's
// scheme) vs HMAC-SHA256 (the fast default used elsewhere in the suite).
func BenchmarkSigningSchemes(b *testing.B) {
	payload := make([]byte, 256)
	b.Run("rsa-md5/sign", func(b *testing.B) {
		signer, err := sig.NewRSASigner("bench", sig.RSAKeySize, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := signer.Sign(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rsa-md5/verify", func(b *testing.B) {
		signer, err := sig.NewRSASigner("bench", sig.RSAKeySize, nil)
		if err != nil {
			b.Fatal(err)
		}
		// Memo off: this benchmark exists to measure the raw RSA verify
		// cost, not the memo-hit cost (internal/sig benchmarks cover that).
		dir := sig.NewDirectoryCache(0)
		if err := dir.RegisterSigner(signer); err != nil {
			b.Fatal(err)
		}
		sigBytes, err := signer.Sign(payload)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dir.Verify("bench", payload, sigBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hmac-sha256/sign", func(b *testing.B) {
		signer := sig.NewHMACSigner("bench", []byte("key"))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := signer.Sign(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFSWithRSA runs the Figure 6 point (4 members) with the paper's
// actual signature scheme on the FS output path, quantifying how much of
// the FS overhead is crypto.
func BenchmarkFSWithRSA(b *testing.B) {
	if testing.Short() {
		b.Skip("RSA keygen is slow")
	}
	opts := figureOpts(bench.SystemFSNewTOP, 4)
	opts.MsgsPerMember = 10
	opts.SendInterval = 5 * time.Millisecond
	opts.RSA = true
	runFigure(b, opts)
}
