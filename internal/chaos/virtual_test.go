package chaos

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/faults"
)

// shortVirtual is short() on an auto-advancing virtual clock. The caller
// owns stopping the returned clock.
func shortVirtual(seed int64) (Options, *clock.Virtual) {
	v := clock.NewVirtual()
	opts := short(seed)
	opts.Clock = v
	return opts, v
}

// TestChaosVirtualSingleSeed: one seed end to end on the virtual timeline.
func TestChaosVirtualSingleSeed(t *testing.T) {
	opts, v := shortVirtual(1)
	defer v.Stop()
	opts.TraceDir = t.TempDir()
	rep, err := Run(opts)
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	if !rep.Passed() {
		t.Fatalf("virtual seed 1 violated oracles: %+v (dump: %s)", rep.Violations, rep.DumpPath)
	}
	if len(rep.Conversions) == 0 {
		t.Fatal("no conversions tracked")
	}
}

// TestChaosCorpusVirtual replays the pinned regression corpus on the
// virtual timeline. TestChaosCorpus asserts every seed is green in real
// time; this lane asserts the identical verdicts under virtual time — the
// parity that makes accelerated chaos trustworthy.
func TestChaosCorpusVirtual(t *testing.T) {
	for _, seed := range corpusSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			opts, v := shortVirtual(seed)
			defer v.Stop()
			opts.TraceDir = t.TempDir()
			rep, err := Run(opts)
			if err != nil {
				t.Fatalf("harness error: %v", err)
			}
			if got := rep.Verdict(); got != "PASS" {
				t.Errorf("virtual verdict %s diverges from the real-time lane's PASS", got)
				for _, viol := range rep.Violations {
					t.Errorf("%s: %s", viol.Oracle, viol.Detail)
				}
			}
			want := Generate(GenConfig{Seed: seed, Members: rep.Schedule.Members, Duration: opts.Duration})
			if rep.Schedule.String() != want.String() {
				t.Errorf("virtual lane ran a different schedule than the generator produces:\n%s\nvs\n%s", rep.Schedule, want)
			}
		})
	}
}

// TestSameSeedSameVerdictVirtual extends the replay property to the
// virtual path: two runs of the same seed on fresh virtual timelines
// produce the byte-identical schedule and the same verdict.
func TestSameSeedSameVerdictVirtual(t *testing.T) {
	const seed = 10
	var schedules, verdicts [2]string
	for i := range schedules {
		opts, v := shortVirtual(seed)
		opts.TraceDir = t.TempDir()
		rep, err := Run(opts)
		v.Stop()
		if err != nil {
			t.Fatalf("run %d harness error: %v", i, err)
		}
		schedules[i] = rep.Schedule.String()
		verdicts[i] = rep.Verdict()
	}
	if schedules[0] != schedules[1] {
		t.Errorf("same seed produced different schedules:\n%s\nvs\n%s", schedules[0], schedules[1])
	}
	if verdicts[0] != verdicts[1] {
		t.Errorf("same seed produced different verdicts: %s vs %s", verdicts[0], verdicts[1])
	}
	if verdicts[0] != "PASS" {
		t.Errorf("seed %d expected to pass, got %s", seed, verdicts[0])
	}
}

// skewCorpusSeeds are pinned so the skew lane always exercises both fault
// classes: with Skew on, seed 3's schedule carries one drift and one step,
// seed 6's likewise (and 6 doubles as a plain-corpus seed, so its base
// schedule is already load-bearing).
var skewCorpusSeeds = []int64{3, 6}

// TestChaosSkewCorpus: bounded clock skew on correct members must never
// break an oracle — a pair whose member runs δ/10 ahead or 500ppm fast is
// skewed, not faulty, and fail-signalling it would be false suspicion.
func TestChaosSkewCorpus(t *testing.T) {
	for _, seed := range skewCorpusSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			opts, v := shortVirtual(seed)
			defer v.Stop()
			opts.Skew = true
			opts.TraceDir = t.TempDir()
			rep, err := Run(opts)
			if err != nil {
				t.Fatalf("harness error: %v", err)
			}
			if !rep.Passed() {
				t.Fatalf("skew seed %d violated oracles: %+v\nschedule:\n%s", seed, rep.Violations, rep.Schedule)
			}
			var drift, step int
			for _, a := range rep.Schedule.Actions {
				switch a.Kind {
				case ActSkewDrift:
					drift++
				case ActSkewStep:
					step++
				}
			}
			if drift == 0 || step == 0 {
				t.Fatalf("pinned skew seed %d no longer exercises both classes (drift=%d step=%d); repin", seed, drift, step)
			}
		})
	}
}

// TestSkewRefusedWithoutVirtual: skew faults only exist on the virtual
// timeline; asking for them on the wall clock must refuse loudly.
func TestSkewRefusedWithoutVirtual(t *testing.T) {
	opts := short(3)
	opts.Skew = true
	if _, err := Run(opts); err == nil {
		t.Fatal("chaos accepted Skew on the wall clock")
	} else if !strings.Contains(err.Error(), "virtual") {
		t.Fatalf("refusal should name the virtual-clock requirement, got: %v", err)
	}
}

// doubleCrashSchedule is the pinned shrink corpus entry: a hand-built
// schedule whose red core is a double crash — both halves of m2's pair die
// at the same instant, so no half survives to emit the fail-signal and the
// conversion oracle must fire. The partition pair before it is green noise
// and the link shaping after it is trailing noise the shrinker must drop.
func doubleCrashSchedule() Schedule {
	members := []string{"m0", "m1", "m2", "m3", "m4"}
	d := time.Second
	return Schedule{
		Seed:     0,
		Members:  members,
		Duration: d,
		Actions: []Action{
			{At: 100 * time.Millisecond, Kind: ActIsolate, A: "m3", B: "m4"},
			{At: 300 * time.Millisecond, Kind: ActHeal, A: "m3", B: "m4"},
			{At: 450 * time.Millisecond, Kind: ActCrashLeader, A: "m2"},
			{At: 450 * time.Millisecond, Kind: ActCrashFollower, A: "m2"},
			{At: 500 * time.Millisecond, Kind: ActShapeLink, A: "m0", B: "m1", Latency: 2 * time.Millisecond},
			{At: 600 * time.Millisecond, Kind: ActUnshapeLink, A: "m0", B: "m1"},
		},
	}
}

// TestMinimizeShrinksDoubleCrash pins the shrinker's behaviour on the
// double-crash schedule: the minimal violating prefix is exactly the first
// four actions (through the second crash), the two trailing noise actions
// are dropped, and replaying the minimal schedule reproduces the verdict —
// the determinism that makes a shrunk schedule a regression artifact.
func TestMinimizeShrinksDoubleCrash(t *testing.T) {
	sched := doubleCrashSchedule()
	opts, v := shortVirtual(0)
	defer v.Stop()
	opts.Schedule = &sched
	opts.NoDump = true

	res, err := Minimize(opts)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if got := len(res.Minimal.Actions); got != 4 {
		t.Fatalf("minimal prefix has %d actions, want 4:\n%s", got, res.Minimal)
	}
	if res.Dropped() != 2 {
		t.Fatalf("dropped %d actions, want the 2 trailing noise actions", res.Dropped())
	}
	last := res.Minimal.Actions[3]
	if last.Kind != ActCrashFollower || last.A != "m2" {
		t.Fatalf("minimal prefix does not end at the second crash: %s", last)
	}
	if !strings.Contains(res.Verdict, "fail-silence-conversion") {
		t.Fatalf("minimal verdict %s does not name the conversion oracle", res.Verdict)
	}

	// Replay determinism: the shrunk schedule is self-contained.
	ropts, rv := shortVirtual(0)
	defer rv.Stop()
	ropts.Schedule = &res.Minimal
	ropts.NoDump = true
	rep, err := Run(ropts)
	if err != nil {
		t.Fatalf("replaying minimal schedule: %v", err)
	}
	if rep.Verdict() != res.Verdict {
		t.Fatalf("minimal schedule replay verdict %s != shrink verdict %s", rep.Verdict(), res.Verdict)
	}

	out := FormatShrink(res)
	for _, want := range []string{"6 actions -> 4", "minimal violating prefix", "crash-follower m2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("shrink report missing %q:\n%s", want, out)
		}
	}
}

// coordinatorFailsMidProposalSchedule is chaos seed 165 (10s window),
// shrunk to its 7-action violating prefix. m0, the coordinator, proposes
// the view that drops the fail-signalled m3 while m1 is cut off from it,
// so m2 and m4 hold m0's proposal and m1 never sees it; then m0's leader
// duplicates an output and the pair fail-signals. m1, the new coordinator,
// proposes the same epoch m0 did, which sorted after m0's tie, so m2 and
// m4 refused it forever and the survivors never installed a view.
func coordinatorFailsMidProposalSchedule() Schedule {
	ms := time.Millisecond
	return Schedule{
		Seed:     165,
		Members:  []string{"m0", "m1", "m2", "m3", "m4"},
		Duration: 10 * time.Second,
		Actions: []Action{
			{At: 613359039, Kind: ActIsolate, A: "m1", B: "m0"},
			{At: 956042019, Kind: ActValueFault, A: "m3", Half: FollowerHalf, Spec: faults.Spec{Mode: faults.ModeCorrupt, After: 3}},
			{At: 1409811423, Kind: ActShapeLink, A: "m1", B: "m2", Latency: 5 * ms},
			{At: 1805058237, Kind: ActIsolate, A: "m3", B: "m2"},
			{At: 3038837149, Kind: ActShapeLink, A: "m3", B: "m4", Latency: ms},
			{At: 3065600762, Kind: ActHeal, A: "m1", B: "m0"},
			{At: 3296700731, Kind: ActValueFault, A: "m0", Half: LeaderHalf, Spec: faults.Spec{Mode: faults.ModeDuplicate, After: 1}},
		},
	}
}

// TestChaosCorpusVirtualCoordinatorFailsMidProposal pins seed 165's
// minimal schedule: the survivors of a coordinator that fail-signals
// mid-proposal must install a view and deliver the liveness probes.
func TestChaosCorpusVirtualCoordinatorFailsMidProposal(t *testing.T) {
	sched := coordinatorFailsMidProposalSchedule()
	opts, v := shortVirtual(165)
	defer v.Stop()
	opts.Schedule = &sched
	opts.Delta = 0 // the schedule was found at the lane's default δ
	opts.TraceDir = t.TempDir()
	runCorpusSeed(t, opts)
}

// TestChaosVirtualReportIsExact: on the virtual timeline a run's whole
// Report — simulated Elapsed and Window, the heal timeline, each
// conversion's latency, the verdict and the delivery counts — is a
// function of its seed, whatever GOMAXPROCS is. Every observation and
// every post-schedule stage runs on the clock's driver, so nothing is
// stamped at the instant some goroutine happened to be scheduled.
func TestChaosVirtualReportIsExact(t *testing.T) {
	cases := []struct {
		name        string
		seed        int64
		skew, churn bool
	}{
		{name: "corpus", seed: corpusSeeds[1]},
		{name: "skew", seed: 3, skew: true},
		{name: "skew", seed: 4, skew: true},
		{name: "churn", seed: 2, churn: true},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-seed%d", tc.name, tc.seed), func(t *testing.T) {
			var first string
			for _, procs := range []int{1, 1, 4, 4} {
				prev := runtime.GOMAXPROCS(procs)
				opts, v := shortVirtual(tc.seed)
				opts.Skew, opts.Churn, opts.NoDump = tc.skew, tc.churn, true
				rep, err := Run(opts)
				v.Stop()
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("GOMAXPROCS %d: harness error: %v", procs, err)
				}
				got := fmt.Sprintf("%+v", rep)
				if first == "" {
					first = got
					continue
				}
				if got != first {
					t.Fatalf("GOMAXPROCS %d: report differs from the first run's:\n%s\nvs\n%s", procs, got, first)
				}
			}
		})
	}
}
