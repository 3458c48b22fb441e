package bench

import (
	"fmt"
	"strings"
	"time"

	"fsnewtop/internal/chaos"
	"fsnewtop/internal/trace"
)

// RunChaos executes one seeded chaos run (chaos.Run: a generated fault
// schedule of partitions, crash churn, link shaping and value faults on
// one half of a replica pair, checked by the paper's fail-silence
// oracles). Like Run, it parks the run's trace registry for DumpTrace, so
// SIGQUIT can snapshot a run in flight; a nil opts.Trace gets a registry
// stamped from opts.Clock. The error reports harness failures only
// (refused transport, skew off the virtual clock, cluster build); oracle
// verdicts live in the report.
func RunChaos(opts chaos.Options) (*chaos.Report, error) {
	if opts.Trace == nil {
		var now func() time.Time // nil: the wall clock
		if opts.Clock != nil {
			now = opts.Clock.Now
		}
		opts.Trace = trace.NewRegistry(0, now)
	}
	activeTrace.Store(opts.Trace)
	return chaos.Run(opts)
}

// FormatChaos renders one chaos report for terminals. wall is the real
// time a run on the virtual clock cost (its Elapsed is simulated), and 0
// for a run on the wall clock.
func FormatChaos(r *chaos.Report, wall time.Duration) string {
	var b strings.Builder
	clockLabel := ""
	if wall > 0 {
		clockLabel = fmt.Sprintf(" simulated, %v wall", wall.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "chaos seed %d: %s (delivered>=%d sent=%d, %v%s)\n",
		r.Schedule.Seed, r.Verdict(), r.Delivered, r.Sent, r.Elapsed.Round(time.Millisecond), clockLabel)
	for _, c := range r.Conversions {
		verdictMark := "converted"
		switch {
		case !c.Fired:
			verdictMark = "armed, never fired"
		case !c.Converted:
			verdictMark = "NOT CONVERTED"
		}
		fmt.Fprintf(&b, "  %-4s %-45s %s", c.Member, c.Action, verdictMark)
		if c.Fired && c.Converted {
			fmt.Fprintf(&b, " in %v (bound %v)", c.Took.Round(time.Millisecond), c.Bound)
		}
		b.WriteByte('\n')
	}
	for _, h := range r.Heals {
		fmt.Fprintf(&b, "  heal %-4s -> %-6s fired t=%v fail-signal t=%v admitted t=%v (recovery %v)\n",
			h.Failed, h.Replacement,
			h.FiredAt.Round(time.Millisecond), h.FailSignalAt.Round(time.Millisecond),
			h.AdmittedAt.Round(time.Millisecond), h.Recovery.Round(time.Millisecond))
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION %s: %s\n", v.Oracle, v.Detail)
	}
	if r.DumpPath != "" {
		fmt.Fprintf(&b, "  trace dump: %s\n", r.DumpPath)
	}
	return b.String()
}
