package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Min != time.Millisecond || s.Max != 100*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.Mean != 50500*time.Microsecond {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if s.P50 != 50*time.Millisecond {
		t.Fatalf("P50 = %v", s.P50)
	}
	if s.P95 != 95*time.Millisecond {
		t.Fatalf("P95 = %v", s.P95)
	}
	if s.P99 != 99*time.Millisecond {
		t.Fatalf("P99 = %v", s.P99)
	}
	if s.StdDev <= 0 {
		t.Fatalf("StdDev = %v", s.StdDev)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Record(7 * time.Millisecond)
	s := h.Snapshot()
	if s.P50 != 7*time.Millisecond || s.P99 != 7*time.Millisecond || s.Mean != 7*time.Millisecond {
		t.Fatalf("single-sample snapshot = %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Record(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("Count = %d", got)
	}
}

// Property: percentiles are monotone and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Record(time.Duration(v))
		}
		s := h.Snapshot()
		return s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
