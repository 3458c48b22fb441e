package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"fsnewtop/internal/metrics"
)

// ChurnOptions parameterises the sustained-churn lane (fsbench -exp
// churn): consecutive seeded churn schedules — each guaranteed at least
// one crash, with the auto-heal controller armed — run back to back, and
// the remediation timelines aggregated into membership availability and
// recovery-time percentiles. Every seed's fail-silence oracles still
// apply; the lane is only green when every seed is.
type ChurnOptions struct {
	// Seed is the first schedule seed; Runs consecutive seeds are swept.
	Seed int64
	// Runs is how many consecutive seeds to sweep (0 = 1).
	Runs int
	// Duration is each seed's active fault window (0 = 10s).
	Duration time.Duration
	// Transport must be TransportNetsim (fault injection).
	Transport string
	// TraceDir receives trace dumps for violated seeds.
	TraceDir string
	// Virtual runs every seed on its own auto-advancing virtual clock;
	// remediation timelines and availability are then simulated time.
	Virtual bool
}

// ChurnReport aggregates a churn sweep.
type ChurnReport struct {
	// Reports holds the per-seed outcomes in seed order; Failed counts
	// the seeds whose oracle verdict was not PASS.
	Reports []ChaosReport
	Failed  int
	// Heals is every completed remediation across the sweep, in seed
	// order then remediation order.
	Heals []ChaosHeal
	// Window is the summed measured churn window across the sweep;
	// Degraded the time within it that some group ran below full
	// strength (the union of recovery gaps, so two concurrent failures
	// never double-count). Availability = 1 − Degraded/Window.
	Window       time.Duration
	Degraded     time.Duration
	Availability float64
	// Recovery summarises the kill→readmission gaps (p50/p99 et al.).
	Recovery metrics.Summary
}

// RunChurn executes the sustained-churn sweep. The error reports harness
// failures only; per-seed oracle verdicts live in the report.
func RunChurn(opts ChurnOptions) (ChurnReport, error) {
	runs := opts.Runs
	if runs <= 0 {
		runs = 1
	}
	var out ChurnReport
	var hist metrics.Histogram
	for i := 0; i < runs; i++ {
		rep, err := RunChaos(ChaosOptions{
			Seed:      opts.Seed + int64(i),
			Duration:  opts.Duration,
			Transport: opts.Transport,
			TraceDir:  opts.TraceDir,
			Churn:     true,
			Virtual:   opts.Virtual,
		})
		if err != nil {
			return out, err
		}
		out.Reports = append(out.Reports, rep)
		out.Heals = append(out.Heals, rep.Heals...)
		if !rep.Passed {
			out.Failed++
		}
		out.Window += rep.Window
		out.Degraded += degradedTime(rep.Heals, rep.Window)
		for _, h := range rep.Heals {
			hist.Record(h.Recovery)
		}
	}
	if out.Window > 0 {
		out.Availability = 1 - float64(out.Degraded)/float64(out.Window)
	}
	out.Recovery = hist.Snapshot()
	return out, nil
}

// degradedTime measures the union of one run's recovery gaps — the time
// the group ran below full strength — clamped to the measured window.
// Two overlapping remediations (the fault budget allows concurrent
// failures) must not double-count the shared stretch.
func degradedTime(heals []ChaosHeal, window time.Duration) time.Duration {
	type span struct{ from, to time.Duration }
	spans := make([]span, 0, len(heals))
	for _, h := range heals {
		from, to := h.FiredAt, h.AdmittedAt
		if from < 0 {
			from = 0
		}
		if to > window {
			to = window
		}
		if to > from {
			spans = append(spans, span{from, to})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].from < spans[j].from })
	var total time.Duration
	end := time.Duration(-1)
	for _, s := range spans {
		if s.from > end {
			total += s.to - s.from
			end = s.to
		} else if s.to > end {
			total += s.to - end
			end = s.to
		}
	}
	return total
}

// FormatChurn renders the sweep for terminals: one line per seed with
// its remediations, then the availability and recovery aggregates.
func FormatChurn(r ChurnReport) string {
	var b strings.Builder
	for _, rep := range r.Reports {
		fmt.Fprintf(&b, "churn seed %d: %s (%d heals, window %v, %v)\n",
			rep.Seed, rep.Verdict, len(rep.Heals),
			rep.Window.Round(time.Millisecond), rep.Elapsed.Round(time.Millisecond))
		for _, h := range rep.Heals {
			fmt.Fprintf(&b, "  %-4s -> %-6s fired t=%v fail-signal t=%v admitted t=%v (recovery %v)\n",
				h.Failed, h.Replacement,
				h.FiredAt.Round(time.Millisecond), h.FailSignalAt.Round(time.Millisecond),
				h.AdmittedAt.Round(time.Millisecond), h.Recovery.Round(time.Millisecond))
		}
		for _, v := range rep.Violations {
			fmt.Fprintf(&b, "  VIOLATION %s: %s\n", v.Oracle, v.Detail)
		}
		if rep.DumpPath != "" {
			fmt.Fprintf(&b, "  trace dump: %s\n", rep.DumpPath)
		}
	}
	fmt.Fprintf(&b, "churn sweep: %d/%d seeds passed, %d members replaced\n",
		len(r.Reports)-r.Failed, len(r.Reports), len(r.Heals))
	fmt.Fprintf(&b, "  availability %.3f%% (degraded %v of %v)\n",
		100*r.Availability, r.Degraded.Round(time.Millisecond), r.Window.Round(time.Millisecond))
	if r.Recovery.Count > 0 {
		fmt.Fprintf(&b, "  recovery p50=%v p99=%v min=%v max=%v (n=%d)\n",
			r.Recovery.P50.Round(time.Millisecond), r.Recovery.P99.Round(time.Millisecond),
			r.Recovery.Min.Round(time.Millisecond), r.Recovery.Max.Round(time.Millisecond),
			r.Recovery.Count)
	}
	return b.String()
}
