package chaos

import (
	"fmt"
	"strings"
	"time"

	"fsnewtop/internal/clock"
)

// ShrinkResult is a red seed's minimized reproduction: the smallest prefix
// of its schedule that still violates an oracle.
type ShrinkResult struct {
	Seed int64
	// Original is the full schedule; Minimal the shortest violating prefix.
	Original, Minimal Schedule
	// FullVerdict is the confirming full-schedule run's verdict; Verdict the
	// minimal prefix's (they can name different oracles — a shorter schedule
	// can fail earlier in the oracle chain).
	FullVerdict, Verdict string
	// Trials counts the prefix replays the scan spent.
	Trials int
	// Report is the minimal prefix run's full report.
	Report *Report
	// Elapsed is the wall time of the whole shrink (confirm + scan).
	Elapsed time.Duration
}

// Dropped reports how many trailing actions the shrink removed.
func (s *ShrinkResult) Dropped() int {
	return len(s.Original.Actions) - len(s.Minimal.Actions)
}

// Minimize shrinks a violating seed's schedule to its minimal violating
// prefix, quickcheck-style: confirm the full schedule is red, then replay
// ascending prefixes Actions[:1], Actions[:2], … and return the first one
// that still violates. Every trial is a fully deterministic replay (the
// netsim reuses the seed; prefixes replay through Options.Schedule), so
// the result is a stable regression artifact: the same red seed always
// shrinks to the same prefix. Prefix trials are cheap under a virtual
// clock — each gets a fresh timeline, so the scan costs wall time
// proportional to computation, not to len(actions)·Duration.
//
// The scan is linear rather than binary on purpose: oracle violations are
// not monotone in prefix length (dropping a heal can turn a green schedule
// red and vice versa), so only an ascending scan's first hit is genuinely
// minimal.
func Minimize(opts Options) (*ShrinkResult, error) {
	opts = opts.withDefaults()
	wall := clock.NewReal()
	t0 := wall.Now()
	_, callerVirtual := opts.Clock.(*clock.Virtual)

	trial := func(sched Schedule) (*Report, error) {
		o := opts
		o.NoDump = true // shrink trials are probes, not artifacts
		if callerVirtual {
			v := clock.NewVirtual()
			defer v.Stop()
			o.Clock = v
		}
		o.Schedule = &sched
		return Run(o)
	}

	// Confirm red on the full schedule, resolved exactly as Run would.
	var full Schedule
	if opts.Schedule != nil {
		full = *opts.Schedule
	} else {
		members := make([]string, opts.Members)
		for i := range members {
			members[i] = fmt.Sprintf("m%d", i)
		}
		full = Generate(GenConfig{Seed: opts.Seed, Members: members, Duration: opts.Duration, Churn: opts.Churn, Skew: opts.Skew, Delta: opts.Delta})
	}
	fullRep, err := trial(full)
	if err != nil {
		return nil, fmt.Errorf("chaos: minimize: confirming run: %w", err)
	}
	res := &ShrinkResult{Seed: opts.Seed, Original: full, FullVerdict: fullRep.Verdict()}
	if fullRep.Passed() {
		res.Elapsed = wall.Since(t0)
		return res, fmt.Errorf("chaos: minimize: seed %d passes all oracles; there is no violation to shrink", opts.Seed)
	}

	for k := 1; k <= len(full.Actions); k++ {
		prefix := full
		prefix.Actions = append([]Action(nil), full.Actions[:k]...)
		rep, err := trial(prefix)
		res.Trials++
		if err != nil {
			return res, fmt.Errorf("chaos: minimize: prefix of %d: %w", k, err)
		}
		if !rep.Passed() {
			res.Minimal, res.Verdict, res.Report = prefix, rep.Verdict(), rep
			res.Elapsed = wall.Since(t0)
			return res, nil
		}
	}
	// Unreachable when replay is deterministic: the full schedule is its own
	// final prefix. Reaching here means a trial diverged from the confirming
	// run — report it as the harness bug it is.
	res.Elapsed = wall.Since(t0)
	return res, fmt.Errorf("chaos: minimize: seed %d violated on the confirming run (%s) but every prefix replay passed — replay is not deterministic", opts.Seed, res.FullVerdict)
}

// FormatShrink renders a shrink outcome for humans.
func FormatShrink(s *ShrinkResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "shrink seed=%d: %d actions -> %d (%d dropped, %d trials, %v)\n",
		s.Seed, len(s.Original.Actions), len(s.Minimal.Actions), s.Dropped(), s.Trials, s.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  full verdict    %s\n", s.FullVerdict)
	fmt.Fprintf(&b, "  minimal verdict %s\n", s.Verdict)
	fmt.Fprintf(&b, "  minimal violating prefix:\n")
	for _, a := range s.Minimal.Actions {
		fmt.Fprintf(&b, "    %s\n", a)
	}
	return b.String()
}
