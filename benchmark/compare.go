package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadRuns reads the untraced result files at path (one file, or every
// *.json of a directory) and groups each metric's values by workload.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	files := []string{path}
	if info, err := os.Stat(path); err != nil {
		return nil, fmt.Errorf("reading results: %w", err)
	} else if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, fmt.Errorf("listing %s: %w", path, err)
		}
	}
	runs := make(map[string]map[string][]float64)
	for _, f := range files {
		if strings.HasSuffix(f, ".spans.json") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("reading results: %w", err)
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("reading results from %s: %w", f, err)
		}
		if r.Trace || r.Benchmark == "" {
			continue
		}
		if !r.Correct || r.Failed > 0 {
			return nil, fmt.Errorf("%s: an incorrect run (%d failed of %d) cannot be compared", f, r.Failed, r.Attempted)
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], v.Value)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no untraced result", path)
	}
	return runs, nil
}

// spread is the distance between the first and third quartile as a share
// of the median, the quartiles taken as Python's statistics.quantiles
// (n=4, exclusive method) takes them. Fewer than two values have none.
func spread(values []float64) float64 {
	n := len(values)
	med := median(values)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(n+1))/4 - 1 // zero-based position
		lo := int(pos)
		switch {
		case pos <= 0:
			lo, pos = 0, 0
		case lo >= n-1:
			lo, pos = n-2, float64(n-1)
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	d := (q(3) - q(1)) / med
	if d < 0 {
		d = -d
	}
	return d
}

// compareResults applies each end-to-end metric's bound to two sets of
// results and prints one row per workload and metric. It reports whether
// any row is "worse".
func compareResults(w io.Writer, oldPath, newPath string, bounds []metricDef) (worse bool, err error) {
	oldRuns, err := loadRuns(oldPath)
	if err != nil {
		return false, err
	}
	newRuns, err := loadRuns(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-24s %-26s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "old median", "spread", "new median", "spread", "change", "bound", "verdict")
	for _, wl := range workloads {
		o, n := oldRuns[wl.Name], newRuns[wl.Name]
		if o == nil || n == nil {
			continue
		}
		for _, d := range bounds {
			ov, nv := o[d.Name], n[d.Name]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			om, nm := median(ov), median(nv)
			// change is positive when the new side is worse.
			change := (nm - om) / om
			if d.Better == higher {
				change = -change
			}
			os, ns := spread(ov), spread(nv)
			verdict := "within bound"
			switch {
			// Bring-up takes tens of milliseconds and scatters widely; like
			// the driver, judge setup_s by its medians alone.
			case d.Name != "setup_s" && (os > d.Bound || ns > d.Bound):
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "worse"
				worse = true
			case change < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-24s %-26s %12.4f %6.1f%% %12.4f %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, om, 100*os, nm, 100*ns, 100*change, 100*d.Bound, verdict)
		}
	}
	return worse, nil
}
