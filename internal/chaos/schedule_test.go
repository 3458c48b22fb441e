package chaos

import (
	"os"
	"strings"
	"testing"
	"time"
)

// goldenSchedules is the pinned schedule text: the schedules the pinned
// corpora run, rendered by Schedule.String. A corpus verdict is only
// pinned while its schedule is, so any change to generation or rendering
// shows here first, as a diff of the text.
const goldenSchedules = "testdata/schedules.golden"

// scheduleText renders every pinned schedule as Run resolves it from
// short(seed): five members, a one-second window and δ = 350ms (which
// sizes the skew amplitudes).
func scheduleText() string {
	members := []string{"m0", "m1", "m2", "m3", "m4"}
	gen := func(seed int64, churn, skew bool) string {
		return Generate(GenConfig{Seed: seed, Members: members, Duration: time.Second,
			Churn: churn, Skew: skew, Delta: 350 * time.Millisecond}).String()
	}
	var b strings.Builder
	for _, seed := range corpusSeeds {
		b.WriteString(gen(seed, false, false))
	}
	for _, seed := range []int64{3, 4} {
		b.WriteString(gen(seed, false, true))
	}
	for _, seed := range []int64{1, 2} {
		b.WriteString(gen(seed, true, false))
	}
	return b.String()
}

// TestScheduleTextIsStable: the generator and the renderer still produce
// the pinned corpora's schedules byte for byte.
func TestScheduleTextIsStable(t *testing.T) {
	want, err := os.ReadFile(goldenSchedules)
	if err != nil {
		t.Fatal(err)
	}
	if got := scheduleText(); got != string(want) {
		t.Fatalf("schedule text differs from %s:\n%s\nwant:\n%s", goldenSchedules, got, want)
	}
}
