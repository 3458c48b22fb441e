package chaos

import (
	"fmt"
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
	// Elapsed is the wall time of the whole run.
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

// observed is the collectors' shared view of the cluster: per-member
// ordered delivery logs, fail-signal observations, and the global set of
// payloads legitimately multicast.
type observed struct {
	mu       sync.Mutex
	now      func() time.Time           // harness clock, for admission stamps
	logs     map[string][]string        // member → payloads in delivery order
	fail     map[string]map[string]bool // observer → fail-signal sources seen
	sent     map[string]bool            // every payload handed to Multicast
	admitted map[string]time.Time       // member → when it saw itself in an installed view
}

func (o *observed) delivered(member, payload string) {
	o.mu.Lock()
	o.logs[member] = append(o.logs[member], payload)
	o.mu.Unlock()
}

func (o *observed) failSignal(observer, source string) {
	o.mu.Lock()
	if o.fail[observer] == nil {
		o.fail[observer] = make(map[string]bool)
	}
	o.fail[observer][source] = true
	o.mu.Unlock()
}

func (o *observed) record(payload string) {
	o.mu.Lock()
	o.sent[payload] = true
	o.mu.Unlock()
}

// view records an installed view at member: once a member sees itself in
// a view it is admitted — the signal the churn harness waits on before
// expecting a replacement to multicast (the machine silently refuses
// multicasts while a join is still provisional). The first admission is
// timestamped; it closes the recovery gap in the heal timeline.
func (o *observed) view(member string, members []string) {
	for _, m := range members {
		if m == member {
			o.mu.Lock()
			if o.admitted[member].IsZero() {
				o.admitted[member] = o.now()
			}
			o.mu.Unlock()
			return
		}
	}
}

// isAdmitted reports whether member has seen itself in an installed view.
func (o *observed) isAdmitted(member string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return !o.admitted[member].IsZero()
}

// admittedAt returns the first-admission timestamp (zero if never).
func (o *observed) admittedAt(member string) time.Time {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.admitted[member]
}

// deliveredAll reports whether member has delivered every payload in want.
func (o *observed) deliveredAll(member string, want []string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	have := make(map[string]bool, len(o.logs[member]))
	for _, p := range o.logs[member] {
		have[p] = true
	}
	for _, w := range want {
		if !have[w] {
			return false
		}
	}
	return true
}

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
	start := clk.Now()
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
	c, err := cluster.New(clusterOpts...)
	if err != nil {
		return nil, fmt.Errorf("chaos: building cluster: %w", err)
	}
	defer c.Close()
	if !c.CanInjectFaults() {
		return nil, fmt.Errorf("chaos: transport %T refuses fault injection; chaos schedules need transport.FaultInjector", net)
	}
	if err := c.JoinAll(groupName); err != nil {
		return nil, fmt.Errorf("chaos: joining: %w", err)
	}

	obs := &observed{
		now:      clk.Now,
		logs:     make(map[string][]string, len(members)),
		fail:     make(map[string]map[string]bool, len(members)),
		sent:     make(map[string]bool),
		admitted: make(map[string]time.Time, len(members)),
	}

	// Collectors: one drain per member, recording deliveries, installed
	// views and fail-signal observations until the run tears down.
	stopDrain := make(chan struct{})
	drain := func(wg *sync.WaitGroup, name string, m *cluster.Member) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopDrain:
					return
				case d := <-m.Deliveries():
					obs.delivered(name, string(d.Payload))
				case v := <-m.Views():
					obs.view(name, v.Members)
				case src := <-m.FailSignals():
					obs.failSignal(name, src)
				}
			}
		}()
	}
	var drainWG sync.WaitGroup
	for _, name := range members {
		drain(&drainWG, name, c.Member(name))
	}

	// Heal watcher (churn runs): record every remediation and attach a
	// collector to each replacement the moment it exists. Replacement
	// drains get their own WaitGroup — they are added while the run is in
	// flight, and the teardown below waits for the watcher to exit before
	// waiting on them.
	type healRecord struct {
		failed, replacement string
		err                 error
	}
	var healMu sync.Mutex
	var heals []healRecord
	var healWG, replWG sync.WaitGroup
	if opts.Churn {
		healWG.Add(1)
		go func() {
			defer healWG.Done()
			for {
				select {
				case <-stopDrain:
					return
				case ev := <-c.HealEvents():
					healMu.Lock()
					heals = append(heals, healRecord{failed: ev.Failed, replacement: ev.Replacement, err: ev.Err})
					healMu.Unlock()
					if ev.Err == nil && ev.Replacement != "" {
						drain(&replWG, ev.Replacement, c.Member(ev.Replacement))
					}
				}
			}
		}()
	}
	defer func() {
		c.Close() // stop member pumps (and the heal controller) first
		close(stopDrain)
		drainWG.Wait()
		healWG.Wait() // watcher exited: no further replacement drains start
		replWG.Wait()
	}()

	// Warmup: the group is formed once one multicast reaches everyone.
	warm := "w|0"
	obs.record(warm)
	if err := c.Member(members[0]).Multicast(groupName, cluster.TotalSym, []byte(warm)); err != nil {
		return nil, fmt.Errorf("chaos: warmup multicast: %w", err)
	}
	if err := waitUntil(clk, 20*time.Second, func() bool {
		for _, name := range members {
			if !obs.deliveredAll(name, []string{warm}) {
				return false
			}
		}
		return true
	}); err != nil {
		return nil, fmt.Errorf("chaos: group never formed: %w", err)
	}

	// Fault accounting, shared between executor, monitor and oracles.
	type faultState struct {
		action  Action
		armed   time.Time // crash time for crashes
		firedAt time.Time // first observed injection (crashes: == armed)
		fired   bool
		failAt  time.Time
		failed  bool
	}
	var faultMu sync.Mutex
	states := make(map[string]*faultState) // member → state (schedule keeps them distinct)

	// Everything that acts on the cluster at an instant of the schedule is a
	// callback on the run's clock, so under a virtual clock it acts at that
	// instant exactly: the monitor, the senders, and the executor, which
	// also restores connectivity and stops the senders at the window's end.
	// actMu serialises them (a real clock runs each on its own goroutine).
	var (
		actMu      sync.Mutex
		sending    = true // the active window is open
		running    = true // Run has not returned
		schedStart time.Time
		every      func(d time.Duration, f func() bool) // f every d while it says so
	)
	defer func() {
		actMu.Lock()
		running = false
		actMu.Unlock()
	}()
	every = func(d time.Duration, f func() bool) {
		clk.AfterFunc(d, func() {
			actMu.Lock()
			defer actMu.Unlock()
			if running && f() {
				every(d, f)
			}
		})
	}

	// Monitor: polls the local, partition-immune pair health and the
	// fault-plane counters, timestamping first injection and first
	// fail-signal per member.
	monitor := func() bool {
		now := clk.Now()
		faultMu.Lock()
		defer faultMu.Unlock()
		for name, st := range states {
			if !st.fired && c.ValueFaultsInjected(name) > 0 {
				st.fired, st.firedAt = true, now
			}
			if !st.failed && c.PairFailed(name) {
				st.failed, st.failAt = true, now
			}
		}
		return true
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
			obs.record(p)
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
			faultMu.Lock()
			states[a.A] = &faultState{action: a, armed: clk.Now(), fired: true, firedAt: clk.Now()}
			faultMu.Unlock()
			if a.Kind == ActCrashLeader {
				c.CrashLeader(a.A)
			} else {
				c.CrashFollower(a.A)
			}
		case ActValueFault:
			faultMu.Lock()
			states[a.A] = &faultState{action: a, armed: clk.Now()}
			faultMu.Unlock()
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
	executed := make(chan error, 1)
	next := 0 // the next action to replay
	var step func()
	step = func() {
		for ; next < len(sched.Actions) && sched.Actions[next].At <= clk.Since(schedStart); next++ {
			if err := act(sched.Actions[next]); err != nil {
				executed <- err
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
		executed <- nil
	}
	every(0, func() bool {
		schedStart = clk.Now()
		every(2*time.Millisecond, monitor)
		for _, name := range members {
			every(opts.SendEvery, sender(name, c.Member(name)))
		}
		step()
		return false
	})
	if err := <-executed; err != nil {
		return nil, err
	}

	// Let every owed fail-silence conversion land (or blow its bound).
	bound := conversionBound(opts.Delta)
	waitConversions := func() {
		for {
			now := clk.Now()
			pending := false
			faultMu.Lock()
			for _, st := range states {
				if st.fired && !st.failed && now.Sub(st.firedAt) < bound {
					pending = true
				}
			}
			faultMu.Unlock()
			if !pending {
				return
			}
			<-clk.After(5 * time.Millisecond)
		}
	}
	waitConversions()

	// Churn barrier: every member whose pair fail-signalled owes a
	// completed remediation — a successful heal event and a replacement
	// that has seen itself in an installed view (only then can it
	// multicast; a provisional joiner's requests are refused). A timeout
	// here is itself the churn oracle firing.
	replacementOf := func(failed string) (string, error) {
		healMu.Lock()
		defer healMu.Unlock()
		for _, h := range heals {
			if h.failed == failed {
				return h.replacement, h.err
			}
		}
		return "", nil
	}
	var replacements []string
	if opts.Churn {
		failedMembers := func() []string {
			faultMu.Lock()
			defer faultMu.Unlock()
			var out []string
			for _, name := range sortedNames(states) {
				if states[name].failed {
					out = append(out, name)
				}
			}
			return out
		}
		healErr := waitUntil(clk, 30*time.Second, func() bool {
			for _, name := range failedMembers() {
				r, herr := replacementOf(name)
				if herr != nil || r == "" || !obs.isAdmitted(r) {
					return false
				}
			}
			return true
		})
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
			case !obs.isAdmitted(r):
				rep.Violations = append(rep.Violations, Violation{
					Oracle: "churn",
					Detail: fmt.Sprintf("replacement %s (for %s) was never admitted into a view", r, name),
				})
			default:
				replacements = append(replacements, r)
				faultMu.Lock()
				fired, failed := states[name].firedAt, states[name].failAt
				faultMu.Unlock()
				admitted := obs.admittedAt(r)
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
		_ = healErr // diagnosed member-by-member above
		if got := len(c.Names()); got != opts.Members && len(rep.Violations) == 0 {
			rep.Violations = append(rep.Violations, Violation{
				Oracle: "churn",
				Detail: fmt.Sprintf("member count not restored: roster has %d members, want %d", got, opts.Members),
			})
		}
		rep.Replacements = append([]string(nil), replacements...)
		rep.Window = clk.Since(schedStart)
	}

	// Liveness probe: members with no scheduled fault must still reach
	// agreement — each multicasts a fresh probe, and every one of them
	// must deliver all of them. (A scheduled-but-unfired value fault may
	// fire on the probe traffic itself; such members are excluded here and
	// judged by the conversion oracle instead.) In churn runs the admitted
	// replacements probe too: each must deliver its own probe — proving
	// the fresh pair multicasts into, and delivers from, the healed group
	// — and every correct original must deliver the replacements' probes.
	scheduledFault := make(map[string]bool)
	for _, m := range sched.ValueFaulted() {
		scheduledFault[m] = true
	}
	for _, m := range sched.Crashed() {
		scheduledFault[m] = true
	}
	var correct []string
	for _, m := range members {
		if !scheduledFault[m] {
			correct = append(correct, m)
		}
	}
	var probes []string
	for _, m := range append(append([]string(nil), correct...), replacements...) {
		p := "p|" + m
		probes = append(probes, p)
		obs.record(p)
		if err := c.Member(m).Multicast(groupName, cluster.TotalSym, []byte(p)); err != nil {
			rep.Violations = append(rep.Violations, Violation{
				Oracle: "liveness",
				Detail: fmt.Sprintf("correct member %s cannot multicast after heal: %v", m, err),
			})
		}
	}
	probeTimeout := 20 * time.Second
	probeErr := waitUntil(clk, probeTimeout, func() bool {
		for _, m := range correct {
			if !obs.deliveredAll(m, probes) {
				return false
			}
		}
		for _, r := range replacements {
			if !obs.deliveredAll(r, []string{"p|" + r}) {
				return false
			}
		}
		return true
	})
	// A fault that fired on the probe traffic still owes its conversion.
	waitConversions()

	// ── Oracle 2: fail-silence conversion ────────────────────────────────
	faultMu.Lock()
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
	faultMu.Unlock()

	// Final state snapshot for the remaining oracles.
	obs.mu.Lock()
	logs := make(map[string][]string, len(obs.logs))
	for m, l := range obs.logs {
		logs[m] = append([]string(nil), l...)
	}
	fails := make(map[string]map[string]bool, len(obs.fail))
	for m, set := range obs.fail {
		cp := make(map[string]bool, len(set))
		for s := range set {
			cp[s] = true
		}
		fails[m] = cp
	}
	sent := make(map[string]bool, len(obs.sent))
	for p := range obs.sent {
		sent[p] = true
	}
	obs.mu.Unlock()
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
		if c.PairFailed(m) {
			rep.Violations = append(rep.Violations, Violation{
				Oracle: "false-suspicion",
				Detail: fmt.Sprintf("%s has no scheduled fault but its pair fail-signalled", m),
			})
		}
	}
	for _, r := range replacements {
		if c.PairFailed(r) {
			rep.Violations = append(rep.Violations, Violation{
				Oracle: "false-suspicion",
				Detail: fmt.Sprintf("replacement %s has no scheduled fault but its pair fail-signalled", r),
			})
		}
	}
	for observer, set := range fails {
		for src := range set {
			if !scheduledFault[src] {
				rep.Violations = append(rep.Violations, Violation{
					Oracle: "false-suspicion",
					Detail: fmt.Sprintf("%s observed a verified fail-signal from un-faulted member %s", observer, src),
				})
			}
		}
	}

	// ── Oracle 4: liveness after heal ────────────────────────────────────
	if probeErr != nil {
		missing := []string{}
		for _, m := range correct {
			if !obs.deliveredAll(m, probes) {
				missing = append(missing, m)
			}
		}
		for _, r := range replacements {
			if !obs.deliveredAll(r, []string{"p|" + r}) {
				missing = append(missing, r)
			}
		}
		rep.Violations = append(rep.Violations, Violation{
			Oracle: "liveness",
			Detail: fmt.Sprintf("after all partitions healed, members %v did not deliver all %d probes within %v", missing, len(probes), probeTimeout),
		})
	}

	rep.Elapsed = clk.Since(start)
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

// waitUntil polls cond every few milliseconds until it holds or the
// timeout expires.
func waitUntil(clk clock.Clock, timeout time.Duration, cond func() bool) error {
	deadline := clk.Now().Add(timeout)
	for {
		if cond() {
			return nil
		}
		if clk.Now().After(deadline) {
			return fmt.Errorf("condition not met within %v", timeout)
		}
		<-clk.After(5 * time.Millisecond)
	}
}
