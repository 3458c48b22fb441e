package chaos

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"fsnewtop/cluster"
	"fsnewtop/internal/clock"
	"fsnewtop/internal/faults"
	"fsnewtop/internal/trace"
	"fsnewtop/transport"
	"fsnewtop/transport/netsim"
)

// maxOrderGrants mirrors internal/core: a blocked follower stops granting
// order extensions after this many, so divergence detection is bounded by
// (1+maxOrderGrants)·t2 even under selective starvation.
const maxOrderGrants = 8

// groupName is the group every chaos run orders its workload in.
const groupName = "chaos"

// Options parameterises one chaos run.
type Options struct {
	// Seed drives the schedule, the netsim randomness, and nothing else.
	Seed int64
	// Members is the cluster size (0 = 5; minimum 4 so the fault budget
	// ⌊(n−1)/2⌋ leaves a correct majority).
	Members int
	// Duration is the active fault window (0 = 10s). The run itself lasts
	// longer: warmup, conversion settling and the liveness probe follow.
	Duration time.Duration
	// Delta is the pair-internal synchrony bound δ (0 = 250ms). The
	// fail-silence oracle's deadline derives from it.
	Delta time.Duration
	// Transport names the backend. Only "netsim" can run a chaos
	// schedule; anything else — notably "tcp" — is refused loudly,
	// because without transport.FaultInjector every partition and
	// link-shaping action would silently no-op and the oracles would be
	// vacuously green.
	Transport string
	// SendEvery paces each member's workload multicasts (0 = 10ms).
	SendEvery time.Duration
	// TraceDir is where a violated seed dumps the merged trace ring
	// ("" = the OS temp dir).
	TraceDir string
	// NoDump disables the violation trace dump.
	NoDump bool
	// Trace, when non-nil, substitutes the run's trace registry — the
	// caller can then dump it on demand (fsbench's SIGQUIT handler) while
	// the run is in flight. Nil gets a private registry.
	Trace *trace.Registry
	// Clock substitutes the harness time source (nil = wall clock). The
	// schedule's offsets, oracle deadlines and probe timeouts all read it.
	Clock clock.Clock
	// Churn arms restart churn: the cluster runs with auto-heal, the
	// schedule always contains at least one crash, and every member whose
	// pair fail-signals is replaced by a fresh-generation pair admitted
	// into the running group via state transfer. The oracles extend to the
	// replacements: their delivery logs must align with the correct
	// members' order, they must never fail-signal, each must prove
	// liveness with its own post-heal probe, and the member count must be
	// restored after every kill. Needs at least 5 members (a fault budget
	// of two: the headline value fault plus the churn crash).
	Churn bool
	// Skew additionally schedules clock-skew faults: per-member forward
	// steps (≤ δ/10) and rate errors (≤ ±500ppm) that a correct pair must
	// ride out without fail-signalling. Requires Clock to be a
	// *clock.Virtual — skew is applied through the per-member clock.Skewed
	// layer the cluster only builds on the virtual timeline.
	Skew bool
	// Schedule, when non-nil, replays this exact schedule instead of
	// generating one from Seed: the replay path for shrunk schedules
	// (Minimize) and hand-built regression scenarios. Members, Duration and
	// Churn are taken from the schedule; Seed still drives the netsim.
	Schedule *Schedule
}

// withDefaults fills the zero values in.
func (o Options) withDefaults() Options {
	if o.Members == 0 {
		o.Members = 5
	}
	if o.Duration == 0 {
		o.Duration = 10 * time.Second
	}
	if o.Delta == 0 {
		o.Delta = 250 * time.Millisecond
	}
	if o.Transport == "" {
		o.Transport = "netsim"
	}
	if o.SendEvery == 0 {
		o.SendEvery = 10 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = clock.NewReal()
	}
	return o
}

// conversionBound is the oracle deadline: a pair converts divergence into
// crash-or-fail-signal within t2 = 2δ of it manifesting, and selective
// starvation stretches manifestation by at most maxOrderGrants further
// deadlines; one extra second absorbs harness scheduling noise.
func conversionBound(delta time.Duration) time.Duration {
	return time.Duration(1+maxOrderGrants)*2*delta + time.Second
}

// Conversion is the fail-silence verdict for one scheduled fault.
type Conversion struct {
	// Member is the faulted member; Action the schedule line that hurt it.
	Member string
	Action string
	// Fired reports whether the fault actually perturbed the machine
	// (crashes always fire). An armed-but-never-fired fault owes nothing.
	Fired bool
	// Converted reports that the pair fail-signalled; Took is the
	// observed fire→fail-signal latency, Bound the oracle deadline.
	Converted bool
	Took      time.Duration
	Bound     time.Duration
}

// Violation is one oracle failure.
type Violation struct {
	// Oracle names the failed check: "delivery-equivalence",
	// "fail-silence-conversion", "false-suspicion" or "liveness".
	Oracle string
	// Detail is a human-readable diagnosis.
	Detail string
}

// Heal is one completed remediation's timeline, as offsets from the
// schedule start: the fault fires, the pair fail-signals, and the
// auto-heal controller's replacement is admitted into an installed view.
// Recovery (FiredAt → AdmittedAt) is the availability gap the churn
// bench aggregates into percentiles.
type Heal struct {
	Failed      string
	Replacement string
	// FiredAt is when the fault first perturbed the member; FailSignalAt
	// when its pair's verified fail-signal was observed; AdmittedAt when
	// the replacement first saw itself in an installed view.
	FiredAt      time.Duration
	FailSignalAt time.Duration
	AdmittedAt   time.Duration
	// Recovery is AdmittedAt − FiredAt: how long the group ran below full
	// strength for this failure.
	Recovery time.Duration
}

// Report is one seed's outcome.
type Report struct {
	Schedule    Schedule
	Conversions []Conversion
	Violations  []Violation
	// Delivered is the per-correct-member delivery count floor; Sent the
	// number of distinct payloads multicast.
	Delivered int
	Sent      int
	// DumpPath locates the violation trace dump ("" when green or dumping
	// was disabled).
	DumpPath string
	// Replacements lists the fresh-generation members the auto-heal
	// controller admitted during a churn run, in remediation order.
	Replacements []string
	// Heals carries each completed remediation's measured timeline
	// (churn runs only).
	Heals []Heal
	// Window is the measured churn window: schedule start through the end
	// of the remediation barrier. Recovery gaps in Heals are offsets into
	// it; 1 − (union of gaps)/Window is the run's membership availability.
	Window time.Duration
	// Elapsed is the run-clock time of the whole run, from bring-up to
	// the last conversion settled: simulated time under a virtual clock.
	Elapsed time.Duration
}

// Passed reports a green run.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

// Verdict renders the outcome canonically: "PASS", or "FAIL(oracle,...)"
// with the violated oracle names sorted and deduplicated. Replays of a
// seed compare verdicts byte-for-byte.
func (r *Report) Verdict() string {
	if r.Passed() {
		return "PASS"
	}
	seen := map[string]bool{}
	var names []string
	for _, v := range r.Violations {
		if !seen[v.Oracle] {
			seen[v.Oracle] = true
			names = append(names, v.Oracle)
		}
	}
	sort.Strings(names)
	return "FAIL(" + strings.Join(names, ",") + ")"
}

// observed is the observer pass's record of the cluster: per-member
// ordered delivery logs, fail-signal observations, admissions, and the
// global set of payloads legitimately multicast. Only callbacks on the
// run's clock write it, under Run's actMu, and the oracles read it once
// the last stage is done, so it has no lock of its own.
type observed struct {
	logs     map[string][]string        // member → payloads in delivery order
	has      map[string]map[string]bool // member → payloads delivered
	fail     map[string]map[string]bool // observer → fail-signal sources seen
	sent     map[string]bool            // every payload handed to Multicast
	admitted map[string]time.Time       // member → when it saw itself in an installed view
}

// drain records, at now, everything m has handed its application since
// the last pass. The pass is the only reader of m's channels, so whatever
// one holds is there to take: a length test finds it without blocking,
// and costs less than a select at every instant. Once a member sees
// itself in an installed view it is admitted — the signal the churn
// barrier waits on before expecting a replacement to multicast (the
// machine silently refuses multicasts while a join is still
// provisional). The first admission closes the recovery gap in the heal
// timeline.
func (o *observed) drain(m *cluster.Member, now time.Time) {
	name := m.Name()
	if o.has[name] == nil {
		o.has[name] = make(map[string]bool)
	}
	for ds := m.Deliveries(); len(ds) > 0; {
		p := string((<-ds).Payload)
		o.logs[name] = append(o.logs[name], p)
		o.has[name][p] = true
	}
	for vs := m.Views(); len(vs) > 0; {
		if v := <-vs; o.admitted[name].IsZero() && slices.Contains(v.Members, name) {
			o.admitted[name] = now
		}
	}
	for fs := m.FailSignals(); len(fs) > 0; {
		if o.fail[name] == nil {
			o.fail[name] = make(map[string]bool)
		}
		o.fail[name][<-fs] = true
	}
}

// deliveredAll reports whether member has delivered every payload in want.
func (o *observed) deliveredAll(member string, want ...string) bool {
	for _, w := range want {
		if !o.has[member][w] {
			return false
		}
	}
	return true
}

// stage is one step of a run around its schedule: then acts once cond
// holds, or once timeout (0 = none) has passed since the stage began, and
// timedOut says which.
type stage struct {
	cond    func(now time.Time) bool
	timeout time.Duration
	then    func(now time.Time, timedOut bool)
}

// always is the condition of a stage that acts as soon as it begins.
func always(time.Time) bool { return true }

// Run executes one seeded chaos schedule against a live FS-NewTOP cluster
// and checks the oracles. The returned error reports harness failures
// only (refused transport, cluster build, warmup); oracle verdicts live
// in the Report.
func Run(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if opts.Transport != "netsim" {
		return nil, fmt.Errorf(
			"chaos: transport %q cannot run fault schedules: it does not implement transport.FaultInjector, "+
				"so partitions and link shaping would silently no-op and every oracle would pass vacuously; "+
				"run chaos on -transport netsim", opts.Transport)
	}
	clk := opts.Clock
	vt, _ := clk.(*clock.Virtual)
	if opts.Skew && vt == nil {
		return nil, fmt.Errorf(
			"chaos: Skew schedules clock-skew faults, which only exist on the virtual timeline: " +
				"per-member skew is applied through the clock.Skewed layer the cluster builds under WithVirtualTime; " +
				"pass Options.Clock = clock.NewVirtual() (fsbench: -virtual)")
	}

	// Resolve the schedule: a replayed override, or the seed's generated one.
	var sched Schedule
	var members []string
	if opts.Schedule != nil {
		sched = *opts.Schedule
		members = append([]string(nil), sched.Members...)
		opts.Members = len(members)
		opts.Duration = sched.Duration
		opts.Churn = sched.Churn
	} else {
		members = make([]string, opts.Members)
		for i := range members {
			members[i] = fmt.Sprintf("m%d", i)
		}
		sched = Generate(GenConfig{Seed: opts.Seed, Members: members, Duration: opts.Duration, Churn: opts.Churn, Skew: opts.Skew, Delta: opts.Delta})
	}
	if opts.Members < 4 {
		return nil, fmt.Errorf("chaos: need at least 4 members (got %d): the fault budget ⌊(n−1)/2⌋ must leave a correct majority", opts.Members)
	}
	if opts.Churn && opts.Members < 5 {
		return nil, fmt.Errorf("chaos: restart churn needs at least 5 members (got %d): the fault budget must cover the headline value fault plus one churn crash", opts.Members)
	}
	if sched.HasSkew() && vt == nil {
		return nil, fmt.Errorf("chaos: schedule contains clock-skew actions but the run's clock is not virtual; skew replays need Options.Clock = clock.NewVirtual()")
	}
	rep := &Report{Schedule: sched}

	// The netsim shares the run's seed: schedule randomness and network
	// randomness both replay from the one integer.
	reg := opts.Trace
	if reg == nil {
		reg = trace.NewRegistry(0, clk.Now)
	}
	net := netsim.New(clk, netsim.WithSeed(opts.Seed), netsim.WithDefaultProfile(transport.Profile{
		Latency: transport.Fixed(200 * time.Microsecond),
	}))
	defer net.Close()

	clockOpt := cluster.WithClock(clk)
	if vt != nil {
		// The virtual option additionally builds the per-member skew layer
		// (cluster.SkewMember) and holds the auto-advance gate through
		// member bring-up.
		clockOpt = cluster.WithVirtualTime(vt)
	}
	clusterOpts := []cluster.Option{
		cluster.WithTransport(net),
		cluster.WithMembers(members...),
		clockOpt,
		cluster.WithDelta(opts.Delta),
		cluster.WithFaultPlan(),
		cluster.WithTrace(reg),
	}
	if opts.Churn {
		clusterOpts = append(clusterOpts, cluster.WithAutoHeal())
	}

	// Members with no scheduled fault must stay correct. (A scheduled but
	// unfired value fault may fire on the probe traffic itself; such members
	// are judged by the conversion oracle instead.)
	scheduledFault := make(map[string]bool)
	for _, m := range append(sched.ValueFaulted(), sched.Crashed()...) {
		scheduledFault[m] = true
	}
	var correct []string
	for _, m := range members {
		if !scheduledFault[m] {
			correct = append(correct, m)
		}
	}

	// Fault accounting, shared between executor, observer pass and oracles.
	type faultState struct {
		action  Action
		firedAt time.Time // first observed injection (crashes: the crash)
		fired   bool
		failAt  time.Time
		failed  bool
	}
	states := make(map[string]*faultState) // member → state (schedule keeps them distinct)
	obs := &observed{
		logs:     make(map[string][]string, len(members)),
		has:      make(map[string]map[string]bool, len(members)),
		fail:     make(map[string]map[string]bool, len(members)),
		sent:     make(map[string]bool),
		admitted: make(map[string]time.Time, len(members)),
	}
	bound := conversionBound(opts.Delta)

	// Everything that observes or acts on the cluster is a callback on the
	// run's clock, serialised by actMu (a real clock runs each on its own
	// goroutine): bring-up, the senders, the schedule executor, and the
	// observer pass, which drains every tracked member, stamps the fault
	// states and advances the stages. Under a virtual clock each acts at
	// its instant exactly and the pass runs at the end of every instant, so
	// the whole Report is a function of the seed. Run's goroutine only
	// waits for the last stage.
	var (
		actMu         sync.Mutex
		c             *cluster.Cluster
		tracked       []*cluster.Member // the members the pass drains
		heals         []cluster.HealEvent
		start         time.Time
		schedStart    time.Time
		sending       = true // the active window is open
		replacements  []string
		probes        []string
		probeTimedOut bool
		pairFailed    = make(map[string]bool) // correct members and replacements, at the end
		stages        []stage
		cur           int       // the stage the pass checks
		done          bool      // the last stage has acted, or the run failed
		began         time.Time // when stages[cur] began
		finished      = make(chan error, 1)
		every         func(d time.Duration, f func() bool) // f every d while it says so
		pass          func(now time.Time)
	)
	every = func(d time.Duration, f func() bool) {
		clk.AfterFunc(d, func() {
			actMu.Lock()
			defer actMu.Unlock()
			if f() {
				every(d, f)
			}
		})
	}
	// observe runs a pass and reports whether the run goes on.
	observe := func() bool {
		actMu.Lock()
		defer actMu.Unlock()
		pass(clk.Now())
		return !done
	}
	// wake runs a pass d from now: when a stage's timeout or a conversion's
	// bound falls due, whether or not anything else happens then.
	wake := func(d time.Duration) { clk.AfterFunc(d, func() { observe() }) }
	// finish ends the run, after the last stage or at a harness failure:
	// no pass acts after it, and the senders stop.
	finish := func(err error) {
		if !done {
			done, sending = true, false
			finished <- err
		}
	}

	pass = func(now time.Time) {
		if done {
			return
		}
		// A select, not a length test: the heal controller drops the
		// oldest event itself when the buffer is full.
	heal:
		for {
			select {
			case ev := <-c.HealEvents():
				heals = append(heals, ev)
				if ev.Err == nil && ev.Replacement != "" {
					tracked = append(tracked, c.Member(ev.Replacement))
				}
			default:
				break heal
			}
		}
		for _, m := range tracked {
			obs.drain(m, now)
		}
		// The local, partition-immune pair health and the fault-plane
		// counters stamp first injection and first fail-signal per member.
		for name, st := range states {
			if !st.fired && c.ValueFaultsInjected(name) > 0 {
				st.fired, st.firedAt = true, now
				wake(bound)
			}
			if !st.failed && c.PairFailed(name) {
				st.failed, st.failAt = true, now
			}
		}
		for !done {
			s := stages[cur]
			held := s.cond(now)
			if !held && (s.timeout == 0 || now.Sub(began) < s.timeout) {
				return
			}
			cur, began = cur+1, now
			if cur < len(stages) && stages[cur].timeout > 0 {
				wake(stages[cur].timeout)
			}
			if s.then != nil {
				s.then(now, !held)
			}
			if cur == len(stages) {
				finish(nil)
			}
		}
	}

	// Workload: every member multicasts paced, self-describing payloads
	// until the active window closes. Members whose pair has failed stop
	// sending (their svc is gone); errors on a dying member are expected.
	sender := func(name string, m *cluster.Member) func() bool {
		seq := 0
		return func() bool {
			if !sending || c.PairFailed(name) {
				return false
			}
			p := fmt.Sprintf("c|%s|%d", name, seq)
			seq++
			obs.sent[p] = true
			return m.Multicast(groupName, cluster.TotalSym, []byte(p)) == nil
		}
	}

	// Executor: replay the schedule against the live cluster, re-arming
	// itself for each action's instant.
	act := func(a Action) error {
		switch a.Kind {
		case ActIsolate:
			c.Isolate(a.A, a.B)
		case ActHeal:
			c.Heal(a.A, a.B)
		case ActShapeLink:
			c.ShapeLinks(a.A, a.B, transport.Profile{Latency: transport.Fixed(a.Latency)})
		case ActUnshapeLink:
			c.ShapeLinks(a.A, a.B, transport.Profile{Latency: transport.Fixed(200 * time.Microsecond)})
		case ActCrashLeader, ActCrashFollower:
			states[a.A] = &faultState{action: a, fired: true, firedAt: clk.Now()}
			wake(bound)
			if a.Kind == ActCrashLeader {
				c.CrashLeader(a.A)
			} else {
				c.CrashFollower(a.A)
			}
		case ActValueFault:
			states[a.A] = &faultState{action: a}
			spec := publicSpec(a.Spec)
			half := cluster.LeaderHalf
			if a.Half == FollowerHalf {
				half = cluster.FollowerHalf
			}
			if err := c.InjectValueFault(a.A, half, spec); err != nil {
				return fmt.Errorf("chaos: arming %v: %w", a, err)
			}
		case ActSkewStep:
			if sk := c.SkewMember(a.A); sk != nil {
				sk.Step(a.Offset)
			}
		case ActSkewDrift:
			if sk := c.SkewMember(a.A); sk != nil {
				sk.SetDrift(a.Drift)
			}
		}
		return nil
	}
	next := 0 // the next action to replay
	var step func()
	step = func() {
		for ; next < len(sched.Actions) && sched.Actions[next].At <= clk.Since(schedStart); next++ {
			if err := act(sched.Actions[next]); err != nil {
				finish(err)
				return
			}
		}
		due := sched.Duration
		if next < len(sched.Actions) {
			due = sched.Actions[next].At
		}
		if wait := due - clk.Since(schedStart); wait > 0 {
			clk.AfterFunc(wait, func() { actMu.Lock(); defer actMu.Unlock(); step() })
			return
		}
		// Belt and braces: restore full connectivity even if the
		// generator's heal-by-0.8·D invariant is ever loosened.
		for i, a := range members {
			for _, b := range members[i+1:] {
				c.Heal(a, b)
				c.ShapeLinks(a, b, transport.Profile{Latency: transport.Fixed(200 * time.Microsecond)})
			}
		}
		sending = false
		wake(0)
	}

	// Every owed fail-silence conversion has landed (or blown its bound).
	settled := func(now time.Time) bool {
		for _, st := range states {
			if st.fired && !st.failed && now.Sub(st.firedAt) < bound {
				return false
			}
		}
		return true
	}

	// Churn barrier: every member whose pair fail-signalled owes a
	// completed remediation — a successful heal event and a replacement
	// that has seen itself in an installed view (only then can it
	// multicast; a provisional joiner's requests are refused). A timeout
	// here is itself the churn oracle firing.
	replacementOf := func(failed string) (string, error) {
		for _, h := range heals {
			if h.Failed == failed {
				return h.Replacement, h.Err
			}
		}
		return "", nil
	}
	failedMembers := func() []string {
		var out []string
		for _, name := range sortedNames(states) {
			if states[name].failed {
				out = append(out, name)
			}
		}
		return out
	}
	healed := func(time.Time) bool {
		for _, name := range failedMembers() {
			r, herr := replacementOf(name)
			if herr != nil || r == "" || obs.admitted[r].IsZero() {
				return false
			}
		}
		return true
	}
	judgeHeals := func(now time.Time, _ bool) {
		for _, name := range failedMembers() {
			r, herr := replacementOf(name)
			switch {
			case herr != nil:
				rep.Violations = append(rep.Violations, Violation{
					Oracle: "churn",
					Detail: fmt.Sprintf("remediation of %s failed: %v", name, herr),
				})
			case r == "":
				rep.Violations = append(rep.Violations, Violation{
					Oracle: "churn",
					Detail: fmt.Sprintf("%s fail-signalled but the auto-heal controller never replaced it", name),
				})
			case obs.admitted[r].IsZero():
				rep.Violations = append(rep.Violations, Violation{
					Oracle: "churn",
					Detail: fmt.Sprintf("replacement %s (for %s) was never admitted into a view", r, name),
				})
			default:
				replacements = append(replacements, r)
				fired, failed, admitted := states[name].firedAt, states[name].failAt, obs.admitted[r]
				rep.Heals = append(rep.Heals, Heal{
					Failed:       name,
					Replacement:  r,
					FiredAt:      fired.Sub(schedStart),
					FailSignalAt: failed.Sub(schedStart),
					AdmittedAt:   admitted.Sub(schedStart),
					Recovery:     admitted.Sub(fired),
				})
			}
		}
		if got := len(c.Names()); got != opts.Members && len(rep.Violations) == 0 {
			rep.Violations = append(rep.Violations, Violation{
				Oracle: "churn",
				Detail: fmt.Sprintf("member count not restored: roster has %d members, want %d", got, opts.Members),
			})
		}
		rep.Replacements = append([]string(nil), replacements...)
		rep.Window = now.Sub(schedStart)
	}

	// Liveness probe: members with no scheduled fault must still reach
	// agreement — each multicasts a fresh probe, and every one of them
	// must deliver all of them. In churn runs the admitted replacements
	// probe too: each must deliver its own probe — proving the fresh pair
	// multicasts into, and delivers from, the healed group — and every
	// correct original must deliver the replacements' probes.
	sendProbes := func(time.Time, bool) {
		for _, m := range append(append([]string(nil), correct...), replacements...) {
			p := "p|" + m
			probes = append(probes, p)
			obs.sent[p] = true
			if err := c.Member(m).Multicast(groupName, cluster.TotalSym, []byte(p)); err != nil {
				rep.Violations = append(rep.Violations, Violation{
					Oracle: "liveness",
					Detail: fmt.Sprintf("correct member %s cannot multicast after heal: %v", m, err),
				})
			}
		}
	}
	unprobed := func() []string {
		var missing []string
		for _, m := range correct {
			if !obs.deliveredAll(m, probes...) {
				missing = append(missing, m)
			}
		}
		for _, r := range replacements {
			if !obs.deliveredAll(r, "p|"+r) {
				missing = append(missing, r)
			}
		}
		return missing
	}
	const probeTimeout = 20 * time.Second

	const warmupTimeout = 20 * time.Second
	warm := "w|0"
	stages = []stage{
		// Warmup: the group is formed once one multicast reaches everyone.
		// The schedule starts at that instant.
		{
			cond: func(time.Time) bool {
				for _, name := range members {
					if !obs.deliveredAll(name, warm) {
						return false
					}
				}
				return true
			},
			timeout: warmupTimeout,
			then: func(now time.Time, timedOut bool) {
				if timedOut {
					finish(fmt.Errorf("chaos: group never formed: the warmup multicast did not reach every member within %v", warmupTimeout))
					return
				}
				schedStart = now
				for _, name := range members {
					every(opts.SendEvery, sender(name, c.Member(name)))
				}
				step()
			},
		},
		// The schedule: its executor closes the active window at its end.
		{cond: func(time.Time) bool { return !sending }},
		{cond: settled},
	}
	if opts.Churn {
		stages = append(stages, stage{cond: healed, timeout: 30 * time.Second, then: judgeHeals})
	}
	stages = append(stages,
		stage{cond: always, then: sendProbes},
		stage{
			cond:    func(time.Time) bool { return len(unprobed()) == 0 },
			timeout: probeTimeout,
			then:    func(_ time.Time, timedOut bool) { probeTimedOut = timedOut },
		},
		// A fault that fired on the probe traffic still owes its conversion.
		stage{cond: settled, then: func(now time.Time, _ bool) {
			for _, m := range append(append([]string(nil), correct...), replacements...) {
				pairFailed[m] = c.PairFailed(m)
			}
			rep.Elapsed = now.Sub(start)
		}},
	)

	// Bring-up, the joins and the warmup multicast are one callback: on a
	// virtual clock they share the run's first instant. The observer pass
	// then runs on the run's clock (clock.Observe) until the run is done.
	clk.AfterFunc(0, func() {
		actMu.Lock()
		defer actMu.Unlock()
		start = clk.Now()
		var err error
		if c, err = cluster.New(clusterOpts...); err != nil {
			finish(fmt.Errorf("chaos: building cluster: %w", err))
			return
		}
		if !c.CanInjectFaults() {
			finish(fmt.Errorf("chaos: transport %T refuses fault injection; chaos schedules need transport.FaultInjector", net))
			return
		}
		if err := c.JoinAll(groupName); err != nil {
			finish(fmt.Errorf("chaos: joining: %w", err))
			return
		}
		for _, name := range members {
			tracked = append(tracked, c.Member(name))
		}
		obs.sent[warm] = true
		if err := c.Member(members[0]).Multicast(groupName, cluster.TotalSym, []byte(warm)); err != nil {
			finish(fmt.Errorf("chaos: warmup multicast: %w", err))
			return
		}
		began = start
		wake(warmupTimeout)
		clock.Observe(clk, func(time.Time) bool { return observe() })
	})
	err := <-finished
	if c != nil {
		defer c.Close()
	}
	if err != nil {
		return nil, err
	}

	// ── Oracle 2: fail-silence conversion ────────────────────────────────
	for _, name := range append(sched.ValueFaulted(), sched.Crashed()...) {
		st := states[name]
		if st == nil {
			continue
		}
		conv := Conversion{Member: name, Action: st.action.String(), Fired: st.fired, Bound: bound}
		if st.fired && st.failed {
			conv.Converted = true
			conv.Took = st.failAt.Sub(st.firedAt)
		}
		rep.Conversions = append(rep.Conversions, conv)
		if st.fired && !st.failed {
			rep.Violations = append(rep.Violations, Violation{
				Oracle: "fail-silence-conversion",
				Detail: fmt.Sprintf("%s: fault fired (%s) but the pair never fail-signalled within %v", name, st.action, bound),
			})
		} else if conv.Converted && conv.Took > bound {
			rep.Violations = append(rep.Violations, Violation{
				Oracle: "fail-silence-conversion",
				Detail: fmt.Sprintf("%s: conversion took %v, exceeding the (1+%d)·2δ bound %v", name, conv.Took, maxOrderGrants, bound),
			})
		}
	}
	logs, sent := obs.logs, obs.sent
	rep.Sent = len(sent)

	// ── Oracle 1: delivery equivalence ───────────────────────────────────
	// Every correct member's ordered log is a prefix of the longest
	// correct log, and nothing outside the sent set is ever delivered.
	ref, refName := []string(nil), ""
	for _, m := range correct {
		if len(logs[m]) > len(ref) {
			ref, refName = logs[m], m
		}
	}
	minDelivered := -1
	for _, m := range correct {
		l := logs[m]
		if minDelivered < 0 || len(l) < minDelivered {
			minDelivered = len(l)
		}
		for i, p := range l {
			if i < len(ref) && p != ref[i] {
				rep.Violations = append(rep.Violations, Violation{
					Oracle: "delivery-equivalence",
					Detail: fmt.Sprintf("position %d: %s delivered %q but %s delivered %q", i, m, p, refName, ref[i]),
				})
				break
			}
		}
	}
	if minDelivered > 0 {
		rep.Delivered = minDelivered
	}
	// Replacements join mid-stream: a replacement never sees the prefix
	// its state-transfer snapshot already settled, so its log must be a
	// contiguous slice of the reference order starting at its entry point
	// — same total order, later start.
	refIndex := make(map[string]int, len(ref))
	for i, p := range ref {
		refIndex[p] = i
	}
	for _, r := range replacements {
		l := logs[r]
		if len(l) == 0 {
			continue // judged by the liveness probe
		}
		k, ok := refIndex[l[0]]
		if !ok {
			rep.Violations = append(rep.Violations, Violation{
				Oracle: "delivery-equivalence",
				Detail: fmt.Sprintf("replacement %s's first delivery %q does not appear in reference member %s's log", r, l[0], refName),
			})
			continue
		}
		for i, p := range l {
			if k+i >= len(ref) {
				break // ran ahead of the reference tail; nothing left to compare
			}
			if p != ref[k+i] {
				rep.Violations = append(rep.Violations, Violation{
					Oracle: "delivery-equivalence",
					Detail: fmt.Sprintf("replacement %s diverged %d deliveries after joining: delivered %q but %s's order holds %q there", r, i, p, refName, ref[k+i]),
				})
				break
			}
		}
	}
	for _, m := range sortedNames(logs) { // corrupt payloads must not escape at anyone
		for _, p := range logs[m] {
			if !sent[p] {
				rep.Violations = append(rep.Violations, Violation{
					Oracle: "delivery-equivalence",
					Detail: fmt.Sprintf("%s delivered payload %q that no member ever multicast: a corrupted value escaped a pair", m, p),
				})
			}
		}
	}

	// ── Oracle 3: no false suspicion ─────────────────────────────────────
	// Un-faulted members never fail-signal and are never the source of a
	// verified fail-signal observed anywhere.
	for _, m := range correct {
		if pairFailed[m] {
			rep.Violations = append(rep.Violations, Violation{
				Oracle: "false-suspicion",
				Detail: fmt.Sprintf("%s has no scheduled fault but its pair fail-signalled", m),
			})
		}
	}
	for _, r := range replacements {
		if pairFailed[r] {
			rep.Violations = append(rep.Violations, Violation{
				Oracle: "false-suspicion",
				Detail: fmt.Sprintf("replacement %s has no scheduled fault but its pair fail-signalled", r),
			})
		}
	}
	for _, observer := range sortedNames(obs.fail) {
		for _, src := range sortedNames(obs.fail[observer]) {
			if !scheduledFault[src] {
				rep.Violations = append(rep.Violations, Violation{
					Oracle: "false-suspicion",
					Detail: fmt.Sprintf("%s observed a verified fail-signal from un-faulted member %s", observer, src),
				})
			}
		}
	}

	// ── Oracle 4: liveness after heal ────────────────────────────────────
	if probeTimedOut {
		rep.Violations = append(rep.Violations, Violation{
			Oracle: "liveness",
			Detail: fmt.Sprintf("after all partitions healed, members %v did not deliver all %d probes within %v", unprobed(), len(probes), probeTimeout),
		})
	}

	if !rep.Passed() && !opts.NoDump {
		if path, derr := reg.Dump(opts.TraceDir, fmt.Sprintf("chaos-seed%d", opts.Seed)); derr == nil {
			rep.DumpPath = path
		}
	}
	return rep, nil
}

// publicSpec converts the schedule's internal fault spec to the cluster
// facade's form.
func publicSpec(s faults.Spec) cluster.FaultSpec {
	out := cluster.FaultSpec{After: s.After, Every: s.Every, InputKinds: s.Kinds}
	switch s.Mode {
	case faults.ModeCorrupt:
		out.Kind = cluster.CorruptOutputs
	case faults.ModeDrop:
		out.Kind = cluster.DropOutputs
	case faults.ModeDuplicate:
		out.Kind = cluster.DuplicateOutputs
	case faults.ModeMute:
		out.Kind = cluster.MuteInputs
	}
	return out
}

// sortedNames returns m's keys sorted — deterministic iteration for
// violation reporting.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
