package bench

import (
	"strings"
	"testing"
	"time"

	"fsnewtop/internal/chaos"
)

// TestDegradedTimeUnion: overlapping recovery gaps must not double-count,
// gaps are clamped to the measured window, and an inverted gap (admitted
// stamp missing) contributes nothing.
func TestDegradedTimeUnion(t *testing.T) {
	sec := func(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
	cases := []struct {
		name   string
		heals  []chaos.Heal
		window time.Duration
		want   time.Duration
	}{
		{"disjoint", []chaos.Heal{
			{FiredAt: sec(1), AdmittedAt: sec(2)},
			{FiredAt: sec(4), AdmittedAt: sec(5)},
		}, sec(10), sec(2)},
		{"overlapping", []chaos.Heal{
			{FiredAt: sec(1), AdmittedAt: sec(3)},
			{FiredAt: sec(2), AdmittedAt: sec(4)},
		}, sec(10), sec(3)},
		{"contained", []chaos.Heal{
			{FiredAt: sec(1), AdmittedAt: sec(5)},
			{FiredAt: sec(2), AdmittedAt: sec(3)},
		}, sec(10), sec(4)},
		{"clamped to window", []chaos.Heal{
			{FiredAt: sec(8), AdmittedAt: sec(12)},
		}, sec(10), sec(2)},
		{"inverted gap ignored", []chaos.Heal{
			{FiredAt: sec(5), AdmittedAt: 0},
		}, sec(10), 0},
		{"unsorted input", []chaos.Heal{
			{FiredAt: sec(4), AdmittedAt: sec(6)},
			{FiredAt: sec(1), AdmittedAt: sec(5)},
		}, sec(10), sec(5)},
	}
	for _, tc := range cases {
		if got := degradedTime(tc.heals, tc.window); got != tc.want {
			t.Errorf("%s: degradedTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestFormatChurn: the renderer must surface the verdicts, the per-heal
// timelines, and the availability/recovery aggregates.
func TestFormatChurn(t *testing.T) {
	r := ChurnReport{
		Reports: []*chaos.Report{
			{Schedule: chaos.Schedule{Seed: 7}, Window: 10 * time.Second,
				Heals: []chaos.Heal{{Failed: "m2", Replacement: "m2~2",
					FiredAt: time.Second, FailSignalAt: 1200 * time.Millisecond,
					AdmittedAt: 1500 * time.Millisecond, Recovery: 500 * time.Millisecond}}},
			{Schedule: chaos.Schedule{Seed: 8}, Window: 10 * time.Second,
				Violations: []chaos.Violation{{Oracle: "churn", Detail: "m1 never replaced"}}},
		},
		Failed:       1,
		Window:       20 * time.Second,
		Degraded:     500 * time.Millisecond,
		Availability: 0.975,
	}
	r.Heals = r.Reports[0].Heals
	out := FormatChurn(r)
	for _, want := range []string{
		"churn seed 7: PASS",
		"m2   -> m2~2",
		"recovery 500ms",
		"churn seed 8: FAIL(churn)",
		"VIOLATION churn: m1 never replaced",
		"1/2 seeds passed, 1 members replaced",
		"availability 97.500%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatChurn output missing %q:\n%s", want, out)
		}
	}
}
