package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fsnewtop/internal/clock"
)

// SeriesPoint is one sweep point of one system in machine-readable form.
// Durations are reported in microseconds (float) so downstream tooling
// does not need to parse Go duration strings.
type SeriesPoint struct {
	X             int     `json:"x"` // members (fig6/7) or bytes (fig8)
	MsgsPerMember int     `json:"msgs_per_member"`
	LatencyMeanUS float64 `json:"latency_mean_us"`
	LatencyP50US  float64 `json:"latency_p50_us"`
	LatencyP95US  float64 `json:"latency_p95_us"`
	LatencyP99US  float64 `json:"latency_p99_us"`
	ThroughputMPS float64 `json:"throughput_msgs_per_sec"`
	Delivered     int     `json:"delivered"`
	Expected      int     `json:"expected"`
	NetMessages   uint64  `json:"net_messages"`
	NetBytes      uint64  `json:"net_bytes"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	// Signature checks summed across the FS deployment's per-node
	// verifiers (zero for NewTOP runs, which sign nothing). Not
	// omitempty: a measured zero must stay distinguishable in the series
	// from a field a reader would otherwise assume absent.
	SigChecks uint64 `json:"sig_checks"`
	Err       string `json:"err,omitempty"`
}

// Series is one figure's machine-readable output, written as
// BENCH_fig{6,7,8}.json so the perf trajectory is diffable across PRs.
type Series struct {
	Figure string `json:"figure"` // "fig6", "fig7", "fig8"
	XAxis  string `json:"x_axis"` // "members" or "bytes"
	// Transport is the network substrate the series was measured on
	// ("netsim" or "tcp"). Recorded so perf trajectories never silently
	// mix substrates: a tcp point diffed against a netsim baseline is a
	// category error, not a regression.
	Transport string        `json:"transport"`
	Generated time.Time     `json:"generated"`
	NewTOP    []SeriesPoint `json:"newtop"`
	FSNewTOP  []SeriesPoint `json:"fs_newtop"`
}

// toPoint flattens one system's Result at one sweep point.
func toPoint(x int, r Result, errStr string) SeriesPoint {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return SeriesPoint{
		X:             x,
		MsgsPerMember: r.MsgsPerMember,
		LatencyMeanUS: us(r.Latency.Mean),
		LatencyP50US:  us(r.Latency.P50),
		LatencyP95US:  us(r.Latency.P95),
		LatencyP99US:  us(r.Latency.P99),
		ThroughputMPS: r.Throughput,
		Delivered:     r.Delivered,
		Expected:      r.Expected,
		NetMessages:   r.NetMessages,
		NetBytes:      r.NetBytes,
		ElapsedMS:     float64(r.Elapsed.Nanoseconds()) / 1e6,
		SigChecks:     r.SigChecks,
		Err:           errStr,
	}
}

// ToSeries converts a figure's sweep rows into the JSON series shape.
// substrate is the transport the sweep was asked to run on; passing it
// explicitly (rather than inferring it from the rows) keeps the metadata
// truthful even when every row errored before measuring — a failed tcp
// sweep must never label itself netsim. An empty substrate falls back to
// the first measured row's Result.Transport, then TransportNetsim.
func ToSeries(figure, xAxis, substrate string, rows []Row) Series {
	s := Series{Figure: figure, XAxis: xAxis, Transport: substrate, Generated: clock.NewReal().Now().UTC()}
scan:
	for _, r := range rows {
		if s.Transport != "" {
			break
		}
		for _, tr := range []string{r.NewTOP.Transport, r.FSNewTOP.Transport} {
			if tr != "" {
				s.Transport = tr
				break scan
			}
		}
	}
	if s.Transport == "" {
		s.Transport = TransportNetsim
	}
	for _, r := range rows {
		s.NewTOP = append(s.NewTOP, toPoint(r.X, r.NewTOP, r.NewTOPErr))
		s.FSNewTOP = append(s.FSNewTOP, toPoint(r.X, r.FSNewTOP, r.FSNewTOPErr))
	}
	return s
}

// WriteSeries writes the series as BENCH_<figure>.json under dir.
func WriteSeries(dir string, s Series) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", s.Figure))
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
