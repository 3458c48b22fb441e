// Package metrics provides the measurement primitive for the benchmark
// harness: a latency histogram and its percentile summary, as the paper
// reports ordering latency in Figure 6.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Histogram accumulates duration samples. It is safe for concurrent use.
// The zero value is ready to use.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	h.mu.Lock()
	h.samples = append(h.samples, d)
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Summary is an immutable snapshot of a histogram.
type Summary struct {
	Count            int
	Min, Max, Mean   time.Duration
	P50, P95, P99    time.Duration
	StdDev           time.Duration
	TotalObservation time.Duration
}

// Snapshot computes a summary of all samples recorded so far.
func (h *Histogram) Snapshot() Summary {
	h.mu.Lock()
	samples := append([]time.Duration(nil), h.samples...)
	h.mu.Unlock()
	if len(samples) == 0 {
		return Summary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum, sumSq float64
	for _, s := range samples {
		f := float64(s)
		sum += f
		sumSq += f * f
	}
	n := float64(len(samples))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	pct := func(p float64) time.Duration {
		idx := int(math.Ceil(p*n)) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(samples) {
			idx = len(samples) - 1
		}
		return samples[idx]
	}
	return Summary{
		Count:            len(samples),
		Min:              samples[0],
		Max:              samples[len(samples)-1],
		Mean:             time.Duration(mean),
		P50:              pct(0.50),
		P95:              pct(0.95),
		P99:              pct(0.99),
		StdDev:           time.Duration(math.Sqrt(variance)),
		TotalObservation: time.Duration(sum),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v min=%v max=%v",
		s.Count, s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond),
		s.Min.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}
