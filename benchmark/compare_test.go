package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpreadMatchesPython pins spread to statistics.quantiles(v, n=4):
// for these ten values Python gives quartiles 2.75 and 8.25.
func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// Five values: quartiles 1.5 and 4.5 around the median 3.
	if got, want := spread([]float64{1, 2, 3, 4, 5}), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of five = %v, want %v", got, want)
	}
	if got := spread([]float64{4}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

// writeRuns writes one untraced result per value of the one metric.
func writeRuns(t *testing.T, dir, metric string, values ...float64) {
	t.Helper()
	for i, v := range values {
		out := &outcome{Correct: true, Attempted: 100, Metrics: map[string]value{metric: {Value: v, Unit: "1/s"}}}
		if _, err := newResult(runShape, workloads[0], int64(i), 15, false, out).write(dir, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	const metric = "ordered_multicasts_per_s"
	bounds := []metricDef{{metric, "1/s", higher, 0.10}}
	for _, tc := range []struct {
		name      string
		old, new  []float64
		verdict   string
		wantWorse bool
	}{
		{"same", []float64{100, 101, 99}, []float64{100, 102, 98}, "within bound", false},
		{"slower", []float64{100, 101, 99}, []float64{80, 81, 79}, "worse", true},
		{"faster", []float64{100, 101, 99}, []float64{120, 121, 119}, "better", false},
		{"noisy", []float64{100, 140, 60}, []float64{80, 81, 79}, "unresolved", false},
	} {
		oldDir, newDir := filepath.Join(t.TempDir(), "old"), filepath.Join(t.TempDir(), "new")
		writeRuns(t, oldDir, metric, tc.old...)
		writeRuns(t, newDir, metric, tc.new...)
		var buf bytes.Buffer
		worse, err := compareResults(&buf, oldDir, newDir, bounds)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if worse != tc.wantWorse || !strings.Contains(buf.String(), tc.verdict) {
			t.Errorf("%s: worse=%v, output:\n%s\nwant verdict %q", tc.name, worse, buf.String(), tc.verdict)
		}
	}
}

func TestCompareRefusesIncorrectRuns(t *testing.T) {
	dir := t.TempDir()
	out := &outcome{Correct: false, Attempted: 100, Failed: 3, Error: "x", Metrics: map[string]value{}}
	if _, err := newResult(runShape, workloads[0], 1, 15, false, out).write(dir, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := compareResults(&bytes.Buffer{}, dir, dir, endToEnd); err == nil {
		t.Error("comparing an incorrect run succeeded")
	}
	if _, err := compareResults(&bytes.Buffer{}, filepath.Join(dir, "missing"), dir, endToEnd); err == nil {
		t.Error("comparing a missing directory succeeded")
	}
}
