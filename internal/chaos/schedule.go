// Package chaos is the seeded fault-schedule fuzzer: it turns one integer
// seed into a deterministic schedule of partitions, crash churn, link
// shaping and — the paper's headline fault — value faults injected into
// exactly one half of a member's self-checking replica pair, then runs
// the schedule against a live FS-NewTOP cluster and checks the paper's
// fail-silence claims as oracles:
//
//  1. delivery equivalence — all correct members deliver identical
//     ordered prefixes, and no corrupted payload ever escapes a pair;
//  2. fail-silence conversion — every injected value fault (and every
//     crashed half) ends in crash-or-verified-fail-signal within the
//     deadline bound;
//  3. no false suspicion — un-faulted members never fail-signal and are
//     never suspected, even under partitions and shaped links
//     (timing-respecting schedules never touch a pair's internal sync
//     link);
//  4. liveness — after every partition heals, rounds resume and fresh
//     multicasts reach every correct member.
//
// The same seed always produces the byte-identical schedule and drives
// the same netsim randomness, so a violated seed replays deterministically:
// same seed, same schedule, same verdict — the property that turns every
// red run into a regression test instead of an anecdote [SSKXBI01].
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"fsnewtop/cluster"
)

// ActionKind enumerates schedule actions.
type ActionKind uint8

const (
	// ActIsolate partitions members A and B (all their addresses, both
	// directions). Pair-internal sync links are never touched.
	ActIsolate ActionKind = iota + 1
	// ActHeal heals the A↔B partition.
	ActHeal
	// ActShapeLink applies a fixed-latency profile to every A↔B link.
	ActShapeLink
	// ActUnshapeLink restores the A↔B links to the run's base profile.
	ActUnshapeLink
	// ActCrashLeader silently crashes A's leader FSO.
	ActCrashLeader
	// ActCrashFollower silently crashes A's follower FSO.
	ActCrashFollower
	// ActValueFault arms Spec on Half of A's pair.
	ActValueFault
	// ActSkewStep jumps member A's local clock forward by Offset
	// (virtual-clock lanes only).
	ActSkewStep
	// ActSkewDrift sets member A's local clock rate to (1+Drift)
	// (virtual-clock lanes only).
	ActSkewDrift
)

// Action is one scheduled fault event.
type Action struct {
	// At is the offset from schedule start.
	At time.Duration
	// Kind selects the event.
	Kind ActionKind
	// A is the (first) member acted on; B the second for link actions.
	A, B string
	// Half, for ActValueFault, selects the faulted pair node.
	Half cluster.Half
	// Spec, for ActValueFault, is the fault to arm.
	Spec cluster.FaultSpec
	// Latency, for ActShapeLink, is the fixed one-way link latency.
	Latency time.Duration
	// Offset, for ActSkewStep, is the forward jump applied to A's clock.
	Offset time.Duration
	// Drift, for ActSkewDrift, is the fractional rate error applied to
	// A's clock (500e-6 = +500ppm, runs fast).
	Drift float64
}

// String renders the action canonically (byte-stable across runs — the
// determinism property test hashes schedule text).
func (a Action) String() string {
	switch a.Kind {
	case ActIsolate:
		return fmt.Sprintf("t=%v isolate %s %s", a.At, a.A, a.B)
	case ActHeal:
		return fmt.Sprintf("t=%v heal %s %s", a.At, a.A, a.B)
	case ActShapeLink:
		return fmt.Sprintf("t=%v shape %s %s latency=%v", a.At, a.A, a.B, a.Latency)
	case ActUnshapeLink:
		return fmt.Sprintf("t=%v unshape %s %s", a.At, a.A, a.B)
	case ActCrashLeader:
		return fmt.Sprintf("t=%v crash-leader %s", a.At, a.A)
	case ActCrashFollower:
		return fmt.Sprintf("t=%v crash-follower %s", a.At, a.A)
	case ActValueFault:
		return fmt.Sprintf("t=%v value-fault %s %s %s", a.At, a.A, a.Half, a.Spec)
	case ActSkewStep:
		return fmt.Sprintf("t=%v skew-step %s offset=%v", a.At, a.A, a.Offset)
	case ActSkewDrift:
		return fmt.Sprintf("t=%v skew-drift %s rate=%+.0fppm", a.At, a.A, a.Drift*1e6)
	default:
		return fmt.Sprintf("t=%v unknown(%d)", a.At, a.Kind)
	}
}

// Schedule is one seed's deterministic fault plan.
type Schedule struct {
	Seed     int64
	Members  []string
	Duration time.Duration
	// Churn records that the schedule was generated for a restart-churn
	// run: at least one crash is always scheduled, because the remediation
	// under test needs a kill to restart from.
	Churn bool
	// Skew records that the schedule was generated with clock-skew faults
	// enabled (virtual-clock lanes only).
	Skew    bool
	Actions []Action
}

// String renders the whole schedule canonically.
func (s Schedule) String() string {
	var b strings.Builder
	marks := ""
	if s.Churn {
		marks += " churn"
	}
	if s.Skew {
		marks += " skew"
	}
	fmt.Fprintf(&b, "chaos schedule seed=%d members=%d duration=%v%s\n",
		s.Seed, len(s.Members), s.Duration, marks)
	for _, a := range s.Actions {
		b.WriteString("  " + a.String() + "\n")
	}
	return b.String()
}

// ValueFaulted returns the members scheduled for a value fault, in
// schedule order.
func (s Schedule) ValueFaulted() []string {
	var out []string
	for _, a := range s.Actions {
		if a.Kind == ActValueFault {
			out = append(out, a.A)
		}
	}
	return out
}

// Crashed returns the members scheduled for a crash, in schedule order.
func (s Schedule) Crashed() []string {
	var out []string
	for _, a := range s.Actions {
		if a.Kind == ActCrashLeader || a.Kind == ActCrashFollower {
			out = append(out, a.A)
		}
	}
	return out
}

// Skewed returns the members scheduled for a clock-skew fault, in schedule
// order (duplicates possible: a member can take a step and a drift).
func (s Schedule) Skewed() []string {
	var out []string
	for _, a := range s.Actions {
		if a.Kind == ActSkewStep || a.Kind == ActSkewDrift {
			out = append(out, a.A)
		}
	}
	return out
}

// HasSkew reports whether any clock-skew action is scheduled.
func (s Schedule) HasSkew() bool { return len(s.Skewed()) > 0 }

// GenConfig parameterises schedule generation.
type GenConfig struct {
	// Seed drives every random choice.
	Seed int64
	// Members are the cluster's member names.
	Members []string
	// Duration is the active fault window. Partitions and shaping are
	// always healed by 80% of it, so the tail is a guaranteed
	// full-connectivity settle window.
	Duration time.Duration
	// Churn generates for a restart-churn run: exactly one value fault
	// (the headline claim stays under test) and at least one crash, so
	// every churn schedule exercises the kill→replace→state-transfer→
	// rejoin cycle. Needs enough members for a budget of two.
	Churn bool
	// Skew additionally schedules clock-skew faults: bounded per-member
	// steps and rate errors that a correct pair must ride out without
	// fail-signalling. Only virtual-clock lanes can execute them.
	Skew bool
	// Delta is the pair synchrony bound the skew amplitudes are derived
	// from (0 = 250ms). Generation only; the run's oracle bound still
	// comes from Options.Delta.
	Delta time.Duration
}

// Generate expands one seed into a schedule. The same config always
// yields the byte-identical schedule: generation consumes the seeded rng
// in a fixed order and never iterates a map.
//
// Budget discipline keeps schedules timing-respecting and non-vacuous:
// at least one value fault is always scheduled (the paper's claim under
// test), the total of value-faulted plus crashed members never exceeds
// ⌊(n−1)/2⌋ (so the surviving group can always reconfigure and the
// liveness oracle is owed an answer), faulted members are distinct, no
// unordered member pair is partitioned twice, and every partition heals
// before 80% of the window.
func Generate(cfg GenConfig) Schedule {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := len(cfg.Members)
	s := Schedule{Seed: cfg.Seed, Members: append([]string(nil), cfg.Members...), Duration: cfg.Duration, Churn: cfg.Churn, Skew: cfg.Skew}
	maxFaults := (n - 1) / 2
	if maxFaults < 1 {
		maxFaults = 1 // callers enforce n ≥ 4; keep the headline fault regardless
	}

	// How many of each class, inside the fault budget.
	nValue := 1
	nCrash := 0
	if cfg.Churn {
		// Restart churn needs a kill to restart from: one value fault (the
		// headline claim stays under test — and with auto-heal, its victim
		// is replaced too) plus at least one crash.
		nCrash = 1
		if rem := maxFaults - 2; rem > 0 {
			nCrash += rng.Intn(rem + 1)
		}
	} else {
		if maxFaults >= 2 && rng.Intn(2) == 1 {
			nValue = 2
		}
		if rem := maxFaults - nValue; rem > 0 {
			nCrash = rng.Intn(rem + 1)
		}
	}
	nPart := rng.Intn(3)  // 0..2 partitions
	nShape := rng.Intn(3) // 0..2 shaped links

	// Distinct faulted members, chosen by a seeded shuffle.
	perm := rng.Perm(n)
	faulted := make([]string, 0, nValue+nCrash)
	for _, i := range perm[:nValue+nCrash] {
		faulted = append(faulted, cfg.Members[i])
	}

	// offset draws a deterministic instant inside [lo, hi] of the window.
	offset := func(lo, hi float64) time.Duration {
		f := lo + rng.Float64()*(hi-lo)
		return time.Duration(f * float64(cfg.Duration))
	}

	// Value faults land early (workload must still be running for the
	// fault to fire) on a random half.
	for i := 0; i < nValue; i++ {
		half := cluster.LeaderHalf
		if rng.Intn(2) == 1 {
			half = cluster.FollowerHalf
		}
		spec := cluster.FaultSpec{After: uint64(rng.Intn(4))}
		switch w := rng.Intn(8); {
		case w < 3:
			spec.Mode = cluster.CorruptOutputs
			if rng.Intn(2) == 1 {
				spec.Every = uint64(1 + rng.Intn(4))
			}
		case w < 5:
			spec.Mode = cluster.DropOutputs
		case w < 7:
			spec.Mode = cluster.DuplicateOutputs
		default:
			// Mute data inputs only: swallowing a gc.data input makes the
			// faulted half's outputs (deliveries, acks) visibly diverge from
			// its peer's on that very step, so the conversion oracle's
			// deadline is owed from the first swallowed input. Muting
			// ack-only kinds can stay output-silent far longer.
			spec.Mode = cluster.MuteInputs
			spec.Kinds = []string{"gc.data"}
		}
		s.Actions = append(s.Actions, Action{
			At: offset(0.05, 0.45), Kind: ActValueFault,
			A: faulted[i], Half: half, Spec: spec,
		})
	}

	// Crashes of one pair half; the surviving half fail-signals.
	for i := 0; i < nCrash; i++ {
		kind := ActCrashLeader
		if rng.Intn(2) == 1 {
			kind = ActCrashFollower
		}
		s.Actions = append(s.Actions, Action{
			At: offset(0.05, 0.55), Kind: kind, A: faulted[nValue+i],
		})
	}

	// Partitions between distinct unordered member pairs, always healed
	// by 0.8·Duration.
	usedPairs := make([]string, 0, nPart)
	pairKey := func(a, b string) string {
		if a > b {
			a, b = b, a
		}
		return a + "|" + b
	}
	for i := 0; i < nPart; i++ {
		ai, bi := rng.Intn(n), rng.Intn(n)
		if ai == bi {
			bi = (bi + 1) % n
		}
		a, b := cfg.Members[ai], cfg.Members[bi]
		key := pairKey(a, b)
		dup := false
		for _, k := range usedPairs {
			if k == key {
				dup = true
			}
		}
		if dup {
			continue // keep rng consumption order seed-stable; just skip
		}
		usedPairs = append(usedPairs, key)
		start := offset(0.05, 0.5)
		heal := start + offset(0.1, 0.3)
		if lim := time.Duration(0.8 * float64(cfg.Duration)); heal > lim {
			heal = lim
		}
		s.Actions = append(s.Actions,
			Action{At: start, Kind: ActIsolate, A: a, B: b},
			Action{At: heal, Kind: ActHeal, A: a, B: b},
		)
	}

	// Asymmetric link shaping: mild fixed latencies, restored by 0.8·D.
	// Inter-member links never feed a pair's 2δ/t2 deadlines (those run
	// on the member-internal sync link), so shaping is timing-respecting
	// by construction.
	for i := 0; i < nShape; i++ {
		ai, bi := rng.Intn(n), rng.Intn(n)
		if ai == bi {
			bi = (bi + 1) % n
		}
		a, b := cfg.Members[ai], cfg.Members[bi]
		lat := time.Duration(1+rng.Intn(5)) * time.Millisecond
		start := offset(0.05, 0.5)
		stop := start + offset(0.1, 0.3)
		if lim := time.Duration(0.8 * float64(cfg.Duration)); stop > lim {
			stop = lim
		}
		s.Actions = append(s.Actions,
			Action{At: start, Kind: ActShapeLink, A: a, B: b, Latency: lat},
			Action{At: stop, Kind: ActUnshapeLink, A: a, B: b},
		)
	}

	// Clock-skew faults, drawn strictly after every other class so seeds
	// generated without Skew keep their byte-identical schedules. A skewed
	// member has no scheduled pair fault: the oracles demand it stays
	// fail-silent and unsuspected, so the amplitudes stay an order of
	// magnitude inside the pair deadlines — steps at most δ/10 (and only
	// forward: backward local time is a different fault class than skew),
	// rate errors at most ±500ppm, an order of magnitude beyond real
	// crystal oscillators.
	if cfg.Skew {
		delta := cfg.Delta
		if delta == 0 {
			delta = 250 * time.Millisecond
		}
		nSkew := 1 + rng.Intn(2)
		for i := 0; i < nSkew; i++ {
			target := cfg.Members[rng.Intn(n)]
			at := offset(0.05, 0.5)
			if rng.Intn(2) == 0 {
				step := delta/50 + time.Duration(rng.Float64()*float64(delta/10-delta/50))
				s.Actions = append(s.Actions, Action{At: at, Kind: ActSkewStep, A: target, Offset: step})
			} else {
				drift := (50 + float64(rng.Intn(451))) * 1e-6
				if rng.Intn(2) == 1 {
					drift = -drift
				}
				s.Actions = append(s.Actions, Action{At: at, Kind: ActSkewDrift, A: target, Drift: drift})
			}
		}
	}

	// Stable execution order: by time, ties broken by the deterministic
	// construction order above.
	sortActions(s.Actions)
	return s
}

// sortActions orders by At, keeping construction order for equal times
// (stable insertion sort; schedules are tiny).
func sortActions(acts []Action) {
	for i := 1; i < len(acts); i++ {
		for j := i; j > 0 && acts[j].At < acts[j-1].At; j-- {
			acts[j], acts[j-1] = acts[j-1], acts[j]
		}
	}
}
