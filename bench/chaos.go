package bench

import (
	"fmt"
	"strings"
	"time"

	"fsnewtop/internal/chaos"
	"fsnewtop/internal/clock"
	"fsnewtop/internal/trace"
)

// ChaosOptions parameterises one seeded chaos run (fsbench -exp chaos):
// a generated fault schedule — partitions, crash churn, link shaping and
// value faults injected into one half of a replica pair — executed
// against a live FS-NewTOP cluster under the paper's fail-silence
// oracles.
type ChaosOptions struct {
	// Seed drives the schedule and the netsim randomness; the same seed
	// replays the byte-identical schedule and the same verdict.
	Seed int64
	// Duration is the active fault window (0 = 10s). The cluster size and
	// δ are chaos's own defaults.
	Duration time.Duration
	// Transport must be TransportNetsim; TransportTCP is refused because
	// tcpnet implements no fault injection and the schedule would be
	// vacuous.
	Transport string
	// TraceDir receives the merged trace dump when an oracle is violated
	// ("" = the OS temp directory).
	TraceDir string
	// Churn arms restart churn: auto-heal runs, the schedule always
	// contains at least one crash, and every fail-signalled member must be
	// replaced by a fresh pair admitted via state transfer. Needs at least
	// 5 members.
	Churn bool
	// Virtual runs the schedule on an auto-advancing virtual clock: the
	// whole run — fault offsets, pair deadlines, oracle bounds, probe
	// timeouts — plays out in simulated time, costing wall time only for
	// computation. Requires TransportNetsim (chaos refuses anything else
	// regardless).
	Virtual bool
	// Skew additionally schedules clock-skew faults (per-member forward
	// steps ≤ δ/10 and rate errors ≤ ±500ppm that correct pairs must ride
	// out). Requires Virtual: skew only exists on the virtual timeline.
	Skew bool
}

// toChaos converts to the internal options, building the virtual clock
// when asked and, when traced, a trace registry stamped from the run's
// clock. The returned stop func is non-nil when a clock was built and must
// be called after the run.
func (o ChaosOptions) toChaos(traced bool) (chaos.Options, func(), error) {
	co := chaos.Options{
		Seed:      o.Seed,
		Duration:  o.Duration,
		Transport: o.Transport,
		TraceDir:  o.TraceDir,
		Churn:     o.Churn,
		Skew:      o.Skew,
	}
	if o.Skew && !o.Virtual {
		return co, nil, fmt.Errorf("%w: chaos Skew faults need Virtual: clock skew only exists on the virtual timeline", ErrRefused)
	}
	var stop func()
	var now func() time.Time // nil: the wall clock
	if o.Virtual {
		v := clock.NewVirtual()
		co.Clock, stop, now = v, v.Stop, v.Now
	}
	if traced {
		co.Trace = trace.NewRegistry(0, now)
	}
	return co, stop, nil
}

// ChaosViolation is one oracle failure.
type ChaosViolation struct {
	Oracle string
	Detail string
}

// ChaosConversion is the fail-silence outcome of one scheduled fault.
type ChaosConversion struct {
	Member    string
	Action    string
	Fired     bool
	Converted bool
	Took      time.Duration
	Bound     time.Duration
}

// ChaosHeal is one completed churn remediation: the fault fires, the
// pair fail-signals, the replacement is admitted. Offsets count from the
// schedule start; Recovery = AdmittedAt − FiredAt is the availability
// gap.
type ChaosHeal struct {
	Failed       string
	Replacement  string
	FiredAt      time.Duration
	FailSignalAt time.Duration
	AdmittedAt   time.Duration
	Recovery     time.Duration
}

// ChaosReport is one seed's outcome in public form.
type ChaosReport struct {
	Seed     int64
	Schedule string
	// Verdict is canonical ("PASS" or "FAIL(oracle,...)"); replays of a
	// seed compare it byte-for-byte.
	Verdict     string
	Passed      bool
	Violations  []ChaosViolation
	Conversions []ChaosConversion
	Delivered   int
	Sent        int
	DumpPath    string
	// Replacements and Heals describe churn remediations (churn runs
	// only); Window is the measured churn window the recovery gaps cut
	// into.
	Replacements []string
	Heals        []ChaosHeal
	Window       time.Duration
	// Elapsed is run-clock time — simulated time under Virtual.
	Elapsed time.Duration
	// Virtual reports the run played out on a virtual clock; WallElapsed
	// is then the real time it cost.
	Virtual     bool
	WallElapsed time.Duration
}

// RunChaos executes one seeded chaos schedule. Like Run, it parks the
// run's trace registry for DumpTrace, so SIGQUIT can snapshot a run in
// flight. The error reports harness failures only (refused transport,
// cluster build); oracle verdicts live in the report.
func RunChaos(opts ChaosOptions) (ChaosReport, error) {
	co, stop, err := opts.toChaos(true)
	if err != nil {
		return ChaosReport{}, err
	}
	activeTrace.Store(co.Trace)
	if stop != nil {
		defer stop()
	}
	wall := clock.NewReal()
	wallStart := wall.Now()
	rep, err := chaos.Run(co)
	if err != nil {
		return ChaosReport{}, err
	}
	out := ChaosReport{
		Seed:         rep.Schedule.Seed,
		Schedule:     rep.Schedule.String(),
		Verdict:      rep.Verdict(),
		Passed:       rep.Passed(),
		Delivered:    rep.Delivered,
		Sent:         rep.Sent,
		DumpPath:     rep.DumpPath,
		Replacements: append([]string(nil), rep.Replacements...),
		Window:       rep.Window,
		Elapsed:      rep.Elapsed,
		Virtual:      opts.Virtual,
		WallElapsed:  wall.Since(wallStart),
	}
	for _, h := range rep.Heals {
		out.Heals = append(out.Heals, ChaosHeal{
			Failed: h.Failed, Replacement: h.Replacement,
			FiredAt: h.FiredAt, FailSignalAt: h.FailSignalAt,
			AdmittedAt: h.AdmittedAt, Recovery: h.Recovery,
		})
	}
	for _, v := range rep.Violations {
		out.Violations = append(out.Violations, ChaosViolation{Oracle: v.Oracle, Detail: v.Detail})
	}
	for _, c := range rep.Conversions {
		out.Conversions = append(out.Conversions, ChaosConversion{
			Member: c.Member, Action: c.Action,
			Fired: c.Fired, Converted: c.Converted,
			Took: c.Took, Bound: c.Bound,
		})
	}
	return out, nil
}

// MinimizeChaos shrinks a red seed's schedule to its minimal violating
// prefix (see chaos.Minimize) and returns the shrink result alongside its
// rendered report. Harness errors — including a seed that turns out to
// pass — come back as the error.
func MinimizeChaos(opts ChaosOptions) (string, error) {
	co, stop, err := opts.toChaos(false)
	if err != nil {
		return "", err
	}
	if stop != nil {
		defer stop()
	}
	res, err := chaos.Minimize(co)
	if err != nil {
		return "", err
	}
	return chaos.FormatShrink(res), nil
}

// FormatChaos renders one chaos report for terminals.
func FormatChaos(r ChaosReport) string {
	var b strings.Builder
	clockLabel := ""
	if r.Virtual {
		clockLabel = fmt.Sprintf(" simulated, %v wall", r.WallElapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "chaos seed %d: %s (delivered>=%d sent=%d, %v%s)\n",
		r.Seed, r.Verdict, r.Delivered, r.Sent, r.Elapsed.Round(time.Millisecond), clockLabel)
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
