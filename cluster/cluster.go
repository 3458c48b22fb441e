// Package cluster is the one-import deployment API for this repository:
// it assembles a complete FS-NewTOP (or crash-tolerant NewTOP) group of
// members over any transport backend and hands back joined, ready-to-use
// members — replacing the five-package wiring dance (netsim + fabric +
// fsnewtop config + group config + per-member plumbing) with a
// functional-options builder:
//
//	c, err := cluster.New(
//		cluster.WithMembers("alice", "bob", "carol"),
//	)
//	...
//	c.JoinAll("chat")
//	c.Member("alice").Multicast("chat", cluster.TotalSym, []byte("hi"))
//	for d := range c.Member("bob").Deliveries() { ... }
//
// By default members are fail-signal processes (self-checking replica
// pairs, Section 3.1 of the paper): the middleware tolerates
// authenticated Byzantine faults, and failure suspicions require a
// verified fail-signal. WithCrashTolerance selects the crash-stop
// baseline (plain NewTOP with a ping suspector) instead — the contrast
// the paper's failover arguments are built on.
//
// The transport is pluggable (package transport): by default a simulated
// in-process network (transport/netsim) is created and owned by the
// cluster; WithTransport substitutes any other backend — notably real TCP
// sockets (transport/tcpnet) — without changing a line of application
// code. Fault-injection helpers (Isolate, ShapeLinks) are honored when
// the backend implements transport.FaultInjector and report refusal when
// it does not, so tests cannot silently no-op on a real network.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fsnewtop/internal/clock"
	failsignal "fsnewtop/internal/core"
	"fsnewtop/internal/faults"
	"fsnewtop/internal/fsnewtop"
	"fsnewtop/internal/group"
	"fsnewtop/internal/newtop"
	"fsnewtop/internal/orb"
	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
	"fsnewtop/internal/trace"
	"fsnewtop/transport"
	"fsnewtop/transport/netsim"
)

// Ordering selects the delivery quality of one multicast, mirroring the
// NewTOP service inventory.
type Ordering = group.Service

const (
	// Unreliable is best-effort multicast: no sequencing, no ordering.
	Unreliable = group.Unreliable
	// Reliable delivers each message exactly once per member, in
	// per-sender order.
	Reliable = group.Reliable
	// Causal delivers messages respecting potential causality.
	Causal = group.Causal
	// TotalSym is the symmetric (decentralised) total order protocol.
	TotalSym = group.TotalSym
	// TotalAsym is the asymmetric (fixed-sequencer) total order protocol.
	TotalAsym = group.TotalAsym
)

// Delivery is one message handed to the application, in delivery order:
// Group, Origin (the sending member), Ordering and Payload, which is the
// application's own.
type Delivery = newtop.Delivery

// View is one installed membership view.
type View = newtop.View

// config collects the options.
type config struct {
	tr           transport.Transport
	members      []string
	clk          clock.Clock
	virtual      *clock.Virtual
	rsa          bool
	crash        bool
	delta        time.Duration
	pingInterval time.Duration
	suspectAfter time.Duration
	syncLink     *transport.Profile
	faultPlan    bool
	traceReg     *trace.Registry
	autoHeal     bool
}

// Option configures New.
type Option func(*config)

// WithTransport runs the cluster over t instead of a private simulated
// network. The caller keeps ownership: Close does not close t.
func WithTransport(t transport.Transport) Option {
	return func(c *config) { c.tr = t }
}

// WithMembers names the cluster's members. Required, at least two.
func WithMembers(names ...string) Option {
	return func(c *config) { c.members = append(c.members[:0], names...) }
}

// WithRSA signs fail-signal traffic with MD5-and-RSA — the paper's
// scheme — instead of fast HMAC. Ignored under WithCrashTolerance.
func WithRSA() Option {
	return func(c *config) { c.rsa = true }
}

// WithCrashTolerance builds crash-stop NewTOP members (ping suspector, no
// replica pairs) instead of fail-signal processes: the paper's baseline,
// in which message loss alone can split the group.
func WithCrashTolerance() Option {
	return func(c *config) { c.crash = true }
}

// WithDelta sets δ, the synchronous bound of each pair's leader↔follower
// link. Default 150ms — generous, so scheduling noise on a loaded host is
// not mistaken for replica failure.
func WithDelta(d time.Duration) Option {
	return func(c *config) { c.delta = d }
}

// defaultDelta is δ when WithDelta is absent or zero.
const defaultDelta = 150 * time.Millisecond

// newConfig applies the options over the defaults New and NewSolo share.
func newConfig(opts []Option) *config {
	cfg := &config{}
	for _, o := range opts {
		o(cfg)
	}
	if cfg.clk == nil {
		cfg.clk = clock.NewReal()
	}
	if cfg.delta == 0 {
		cfg.delta = defaultDelta
	}
	return cfg
}

// WithClock substitutes the time source (tests).
func WithClock(clk clock.Clock) Option {
	return func(c *config) { c.clk = clk }
}

// WithVirtualTime runs the whole cluster on an auto-advancing virtual
// clock (clock.Virtual): every member's middleware stack takes time from
// its own per-member clock.Skewed view of v's one timeline, so simulated
// protocol-hours cost only the protocol's own computation, and the chaos
// plane's clock-skew faults can step or drift a single member through
// SkewMember. Every node loop of every member runs on v's driver, so the
// timeline is exact. Requires the simulated transport: virtual time cannot
// pace real sockets; and fail-signal members: New refuses it together with
// WithCrashTolerance, whose ORB request pool runs goroutines the driver
// cannot. Member construction holds v's busy gate, so bring-up is never
// raced by an advancing clock.
func WithVirtualTime(v *clock.Virtual) Option {
	return func(c *config) { c.clk, c.virtual = v, v }
}

// WithPingSuspector tunes the crash-stop failure suspector: ping every
// interval, suspect after silence. Only meaningful with
// WithCrashTolerance (fail-signal members do not guess).
func WithPingSuspector(interval, suspectAfter time.Duration) Option {
	return func(c *config) { c.pingInterval, c.suspectAfter = interval, suspectAfter }
}

// WithSyncLinkProfile shapes each pair's leader↔follower link (the A2
// LAN) on fault-injecting transports; real networks ignore it.
func WithSyncLinkProfile(p transport.Profile) Option {
	return func(c *config) { c.syncLink = &p }
}

// WithFaultPlan arms the value-fault plane: every fail-signal member's
// pair is built with an inert faults.Switch wrapped around each replica's
// GC machine, so InjectValueFault can perturb exactly one half of a pair
// at any later instant — the paper's systematic fault-injection
// validation, available on a running deployment. Ignored (harmless) under
// WithCrashTolerance, which has no pairs to fault.
func WithFaultPlan() Option {
	return func(c *config) { c.faultPlan = true }
}

// WithTrace threads a protocol trace registry through every member's
// middleware stack (pairs, invocation endpoints, GC machines), so a
// violation post-mortem gets one merged causal timeline across the whole
// cluster. The caller keeps ownership of the registry; pass it before New
// builds the members.
func WithTrace(reg *trace.Registry) Option {
	return func(c *config) { c.traceReg = reg }
}

// WithAutoHeal arms the self-healing plane: a remediation controller
// watches for verified fail-signals from members' own pairs and for each
// failure closes the dead stack, spawns a fresh replacement pair under a
// new generation name ("alice~2"), transfers group state to it, and
// rejoins it into every group bootstrapped through JoinAll. Each remediation is reported on
// HealEvents. The controller scans for failures every healEvery. Off by
// default: without this option a failed member stays failed, exactly as
// in the paper's static deployments. Fail-signal members only: New refuses
// it together with WithCrashTolerance, whose only evidence of failure is a
// suspicion that may be false.
func WithAutoHeal() Option {
	return func(c *config) { c.autoHeal = true }
}

// healEvery paces the auto-heal controller's failure scan.
const healEvery = 20 * time.Millisecond

// HealEvent reports one remediation performed by the auto-heal
// controller (WithAutoHeal).
type HealEvent struct {
	// Failed is the member whose failure was detected.
	Failed string
	// Replacement is the freshly spawned member's name (generation-
	// suffixed; empty when spawning failed outright).
	Replacement string
	// Groups lists the groups the replacement was admitted into.
	Groups []string
	// Err is non-nil when the remediation could not complete.
	Err error
}

// Half names one node of a member's self-checking replica pair.
type Half uint8

const (
	// LeaderHalf is the pair's order-deciding FSO.
	LeaderHalf Half = iota + 1
	// FollowerHalf is the pair's order-checking FSO.
	FollowerHalf
)

// String implements fmt.Stringer.
func (h Half) String() string {
	switch h {
	case LeaderHalf:
		return "leader"
	case FollowerHalf:
		return "follower"
	default:
		return fmt.Sprintf("Half(%d)", uint8(h))
	}
}

// FaultKind enumerates the value faults InjectValueFault can arm.
type FaultKind uint8

const (
	// CorruptOutputs flips bytes in the faulted replica's outputs.
	CorruptOutputs FaultKind = iota + 1
	// DropOutputs silently discards the faulted replica's outputs.
	DropOutputs
	// DuplicateOutputs repeats the faulted replica's outputs.
	DuplicateOutputs
	// MuteInputs makes the faulted replica deaf to selected input kinds.
	MuteInputs
)

// FaultSpec selects one value fault for InjectValueFault.
type FaultSpec struct {
	// Kind picks the perturbation.
	Kind FaultKind
	// After skips this many outputs (inputs for MuteInputs) before the
	// fault fires, counted from injection.
	After uint64
	// Every, for CorruptOutputs, perturbs one output out of Every after
	// the skip (0 = only the single output right after After).
	Every uint64
	// InputKinds, for MuteInputs, lists the input kinds to swallow.
	InputKinds []string
}

// spec converts to the internal fault plane's form.
func (f FaultSpec) spec() (faults.Spec, error) {
	s := faults.Spec{After: f.After, Every: f.Every, Kinds: f.InputKinds}
	switch f.Kind {
	case CorruptOutputs:
		s.Mode = faults.ModeCorrupt
	case DropOutputs:
		s.Mode = faults.ModeDrop
	case DuplicateOutputs:
		s.Mode = faults.ModeDuplicate
	case MuteInputs:
		s.Mode = faults.ModeMute
	default:
		return faults.Spec{}, fmt.Errorf("cluster: unknown fault kind %d", f.Kind)
	}
	return s, nil
}

// Cluster is a running deployment of members over one transport. Its
// membership is dynamic: AddMember (and the auto-heal controller) can
// grow it after construction, so all roster access is mutex-guarded.
type Cluster struct {
	tr     transport.Transport
	ownsTr bool
	crash  bool
	cfg    *config
	fab    *fsnewtop.Fabric
	naming *orb.Naming // crash mode's shared ORB naming

	mu      sync.RWMutex
	names   []string // current live roster, in admission order
	members map[string]*Member
	// skews holds each member's private clock view (WithVirtualTime):
	// the handle the chaos plane's skew faults act on.
	skews map[string]*clock.Skewed
	// switches is the armed fault plane (WithFaultPlan): per member, the
	// inert faults.Switch wrapped around each pair half's GC machine.
	switches map[string]map[Half]*faults.Switch
	// groups tracks groups bootstrapped through JoinAll — the set the
	// auto-heal controller rejoins replacements into.
	groups map[string]bool
	// gen counts replacement generations per base member name.
	gen map[string]int

	healEvents chan HealEvent
	healer     clock.Loop // the auto-heal controller (WithAutoHeal)
}

// New assembles and starts a cluster. Every named member is built,
// wired to every other, and ready to Join.
func New(opts ...Option) (*Cluster, error) {
	cfg := newConfig(opts)
	if len(cfg.members) < 2 {
		return nil, fmt.Errorf("cluster: need at least two members (WithMembers)")
	}
	seen := make(map[string]bool, len(cfg.members))
	for _, n := range cfg.members {
		if n == "" || seen[n] {
			return nil, fmt.Errorf("cluster: member names must be unique and non-empty (got %q)", n)
		}
		seen[n] = true
	}
	if cfg.autoHeal && cfg.crash {
		return nil, fmt.Errorf("cluster: WithAutoHeal refused under WithCrashTolerance: remediation acts only on verified fail-signals, and a crash-stop member's exclusion from a view may be a false suspicion")
	}
	if cfg.virtual != nil && cfg.crash {
		return nil, fmt.Errorf("cluster: WithVirtualTime refused under WithCrashTolerance: a crash-tolerant member's ORB request pool runs on goroutines of its own, which the virtual clock's single driver cannot run, so its timeline would not be exact")
	}
	if cfg.virtual != nil {
		if cfg.tr != nil {
			if _, ok := cfg.tr.(*netsim.Network); !ok {
				return nil, fmt.Errorf("cluster: WithVirtualTime requires the simulated transport (netsim); a real transport cannot follow a virtual clock")
			}
		}
		// Hold the advance gate across bring-up: a pair whose partner half
		// is still being constructed must not watch virtual time leap past
		// its 2δ comparison deadline.
		cfg.virtual.Busy()
		defer cfg.virtual.Done()
	}

	c := &Cluster{
		tr:      cfg.tr,
		crash:   cfg.crash,
		cfg:     cfg,
		names:   append([]string(nil), cfg.members...),
		members: make(map[string]*Member, len(cfg.members)),
		groups:  make(map[string]bool),
		gen:     make(map[string]int),
		skews:   make(map[string]*clock.Skewed),
	}
	if c.tr == nil {
		c.tr = netsim.New(cfg.clk, netsim.WithDefaultProfile(transport.Profile{
			Latency: transport.Fixed(200 * time.Microsecond),
		}))
		c.ownsTr = true
	}

	built := false
	defer func() {
		if !built {
			c.Close()
		}
	}()

	if cfg.crash {
		c.naming = orb.NewNaming()
	} else {
		c.fab = fsnewtop.NewFabric(c.tr, cfg.clk)
		c.fab.Trace = cfg.traceReg
		if cfg.rsa {
			c.fab.NewSigner = func(id sig.ID) (sig.Signer, error) {
				return sig.NewRSASigner(id, sig.RSAKeySize, nil)
			}
		}
		if cfg.faultPlan {
			c.switches = make(map[string]map[Half]*faults.Switch, len(c.names))
		}
	}
	for _, name := range c.names {
		peers := make([]string, 0, len(c.names)-1)
		for _, p := range c.names {
			if p != name {
				peers = append(peers, p)
			}
		}
		m, err := c.buildMember(name, peers)
		if err != nil {
			return nil, fmt.Errorf("cluster: building member %q: %w", name, err)
		}
		c.members[name] = m
	}
	if cfg.autoHeal {
		c.healEvents = make(chan HealEvent, 256)
		c.healer = clock.NewLoop(cfg.clk, c.healPass)
	}
	built = true
	return c, nil
}

// buildMember spawns one member's full middleware stack on the cluster's
// transport. peers is the roster the member watches (FS mode: those
// members are notified by its pair's fail-signal).
func (c *Cluster) buildMember(name string, peers []string) (*Member, error) {
	// Under virtual time, each member runs on its own skewed view of the
	// one shared timeline (unskewed until a chaos action says otherwise).
	mclk := c.cfg.clk
	if c.cfg.virtual != nil {
		sk := clock.NewSkewed(c.cfg.virtual)
		mclk = sk
		c.mu.Lock()
		c.skews[name] = sk
		c.mu.Unlock()
	}
	if c.crash {
		svc, err := newtop.New(newtop.Config{
			Name:   name,
			Net:    c.tr,
			Naming: c.naming,
			Clock:  mclk,
			Trace:  c.cfg.traceReg,
			GC: group.Config{
				PingInterval: c.cfg.pingInterval,
				SuspectAfter: c.cfg.suspectAfter,
			},
		})
		if err != nil {
			return nil, err
		}
		return &Member{name: name, svc: svc}, nil
	}

	var wrap func(role failsignal.Role, m sm.Machine) sm.Machine
	var halves map[Half]*faults.Switch
	if c.cfg.faultPlan {
		halves = make(map[Half]*faults.Switch, 2)
		wrap = func(role failsignal.Role, m sm.Machine) sm.Machine {
			sw := faults.NewSwitch(m)
			if role == failsignal.Leader {
				halves[LeaderHalf] = sw
			} else {
				halves[FollowerHalf] = sw
			}
			return sw
		}
	}
	nso, err := fsnewtop.New(fsnewtop.Config{
		Name:        name,
		Fabric:      c.fab,
		Peers:       peers,
		Clock:       mclk,
		Delta:       c.cfg.delta,
		SyncLink:    c.cfg.syncLink,
		WrapMachine: wrap,
	})
	if err != nil {
		return nil, err
	}
	if halves != nil {
		c.mu.Lock()
		c.switches[name] = halves
		c.mu.Unlock()
	}
	return &Member{name: name, svc: nso, nso: nso}, nil
}

// Names returns the current live roster, in admission order. Members
// replaced by the auto-heal controller are not listed (their handles stay
// reachable through Member).
func (c *Cluster) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.names...)
}

// Member returns the named member, or nil if unknown. Replaced members
// remain reachable under their old name.
func (c *Cluster) Member(name string) *Member {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.members[name]
}

// Transport returns the cluster's transport (capability discovery,
// registering application endpoints next to the members).
func (c *Cluster) Transport() transport.Transport { return c.tr }

// JoinAll makes every member join groupName with the full cluster
// membership — the common static-deployment bootstrap. Groups created
// here are tracked: the auto-heal controller rejoins replacement members
// into them.
func (c *Cluster) JoinAll(groupName string) error {
	c.mu.Lock()
	names := append([]string(nil), c.names...)
	c.groups[groupName] = true
	members := make([]*Member, 0, len(names))
	for _, name := range names {
		members = append(members, c.members[name])
	}
	c.mu.Unlock()
	for i, m := range members {
		if err := m.Join(groupName, names...); err != nil {
			return fmt.Errorf("cluster: %q joining %q: %w", names[i], groupName, err)
		}
	}
	return nil
}

// AddMember grows a running cluster: it spawns a brand-new member on the
// cluster's transport, registers it as a fail-signal watcher target of
// every live member (and vice versa), and seeks its admission into each
// named group via the join protocol's state transfer. The call returns
// once admission is underway; the new member's Views stream reports the
// installed view that includes it.
func (c *Cluster) AddMember(name string, groups ...string) (*Member, error) {
	if name == "" {
		return nil, fmt.Errorf("cluster: member name must be non-empty")
	}
	c.mu.Lock()
	if c.members[name] != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: member %q already exists", name)
	}
	// Reserve the name while building (concurrent AddMember calls).
	c.members[name] = nil
	peers := append([]string(nil), c.names...)
	c.mu.Unlock()

	if c.cfg.virtual != nil {
		// Same bring-up protection as New: no time leaps mid-construction.
		c.cfg.virtual.Busy()
	}
	m, err := c.buildMember(name, peers)
	if c.cfg.virtual != nil {
		c.cfg.virtual.Done()
	}
	if err != nil {
		c.mu.Lock()
		delete(c.members, name)
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: building member %q: %w", name, err)
	}

	c.mu.Lock()
	c.members[name] = m
	c.names = append(c.names, name)
	for _, g := range groups {
		c.groups[g] = true
	}
	watchers := make([]*Member, 0, len(peers))
	for _, p := range peers {
		if pm := c.members[p]; pm != nil {
			watchers = append(watchers, pm)
		}
	}
	c.mu.Unlock()

	// Existing pairs were built before this member existed: register it as
	// a watcher so their fail-signals reach its GC too.
	for _, pm := range watchers {
		if pm.nso != nil {
			pm.nso.AddPeer(name)
		}
	}
	for _, g := range groups {
		if err := m.JoinExisting(g, peers...); err != nil {
			return m, fmt.Errorf("cluster: %q joining %q: %w", name, g, err)
		}
	}
	return m, nil
}

// HealEvents streams the auto-heal controller's remediations. Nil unless
// the cluster was built with WithAutoHeal. The channel is buffered and
// never blocks the controller; an undrained channel drops the oldest
// events.
func (c *Cluster) HealEvents() <-chan HealEvent { return c.healEvents }

// healPass is the remediation controller's loop: it scans for failed
// members every healEvery and replaces each with a fresh-generation pair.
func (c *Cluster) healPass(now time.Time) time.Time {
	for _, victim := range c.detectFailures() {
		c.heal(victim)
	}
	return now.Add(healEvery)
}

// detectFailures returns the live members whose pairs have fail-signalled:
// local, partition-immune truth.
func (c *Cluster) detectFailures() []string {
	var victims []string
	for _, name := range c.Names() {
		if c.PairFailed(name) {
			victims = append(victims, name)
		}
	}
	return victims
}

// baseName strips a replacement-generation suffix ("alice~3" → "alice").
func baseName(name string) string {
	if i := strings.LastIndex(name, "~"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// heal replaces one failed member: retire it from the roster, close its
// stack, spawn a fresh-generation replacement, and admit it into every tracked group. The replacement
// gets a new name — a pair that has fail-signalled answers everything
// with its fail-signal forever, so reusing the name would poison the
// newcomer's traffic.
func (c *Cluster) heal(victim string) {
	c.mu.Lock()
	m := c.members[victim]
	live := false
	for i, n := range c.names {
		if n == victim {
			c.names = append(c.names[:i], c.names[i+1:]...)
			live = true
			break
		}
	}
	if m == nil || !live {
		c.mu.Unlock()
		return // already healed (or never ours)
	}
	// The victim's private clock view dies with its stack: the replacement
	// gets a fresh, unskewed one from buildMember, and a chaos action
	// aimed at the old handle must miss loudly (SkewMember → nil) rather
	// than silently skew a corpse.
	delete(c.skews, victim)
	base := baseName(victim)
	if c.gen[base] == 0 {
		c.gen[base] = 1
	}
	c.gen[base]++
	replacement := fmt.Sprintf("%s~%d", base, c.gen[base])
	groups := make([]string, 0, len(c.groups))
	for g := range c.groups {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	c.mu.Unlock()

	m.svc.Close()
	_, err := c.AddMember(replacement, groups...)
	ev := HealEvent{Failed: victim, Replacement: replacement, Groups: groups, Err: err}
	if err != nil {
		ev.Replacement = ""
	}
	select {
	case c.healEvents <- ev:
	default:
		// Full observer buffer: drop the oldest so the stream stays live.
		select {
		case <-c.healEvents:
		default:
		}
		select {
		case c.healEvents <- ev:
		default:
		}
	}
}

// KillMember abruptly shuts down name's entire middleware stack — the
// crash-stop fault. For crash-tolerant clusters this is the canonical
// kill (the ping suspector takes it from there). For fail-signal clusters
// it models both pair nodes dying at once — outside the paper's fault
// hypothesis, so nothing will detect it; prefer CrashLeader/CrashFollower, which the
// pair converts into a verified fail-signal.
func (c *Cluster) KillMember(name string) bool {
	if m := c.Member(name); m != nil {
		m.svc.Close()
		return true
	}
	return false
}

// Stats reports transport-level traffic counters, if the backend accounts
// for them.
func (c *Cluster) Stats() (transport.Stats, bool) { return transport.GetStats(c.tr) }

// SigCacheStats reports the fail-signal fabric's verification counters:
// misses is the number of real signature checks its nodes made, hits the
// number a memo answered — zero, since no node memoises (both zero for
// crash-tolerant clusters, which sign nothing).
func (c *Cluster) SigCacheStats() (hits, misses uint64) {
	if c.fab == nil {
		return 0, 0
	}
	cs := c.fab.SigCacheStats()
	return cs.Hits, cs.Misses
}

// CrashLeader silently crashes name's leader FSO node — the fault the
// pair's self-checking protocol converts into a verified fail-signal.
// Returns false for crash-tolerant clusters and unknown members.
func (c *Cluster) CrashLeader(name string) bool {
	if m := c.Member(name); m != nil && m.nso != nil {
		m.nso.Pair().Leader.Crash()
		return true
	}
	return false
}

// CrashFollower silently crashes name's follower FSO node.
func (c *Cluster) CrashFollower(name string) bool {
	if m := c.Member(name); m != nil && m.nso != nil {
		m.nso.Pair().Follower.Crash()
		return true
	}
	return false
}

// InjectFailSignal makes name's leader FSO emit its fail-signal
// arbitrarily (the paper's fs2 arbitrary-fail-signalling fault).
func (c *Cluster) InjectFailSignal(name string) bool {
	if m := c.Member(name); m != nil && m.nso != nil {
		m.nso.Pair().Leader.InjectFailSignal()
		return true
	}
	return false
}

// InjectValueFault arms spec on one half of name's replica pair — the
// paper's headline fault: from this instant, that GC replica's behaviour
// is perturbed while its peer stays correct, and the pair must convert
// the divergence into crash-or-fail-signal, never divergent delivery.
// It fails unless the cluster was built with WithFaultPlan (the switches
// must wrap the machines at construction time).
func (c *Cluster) InjectValueFault(name string, half Half, spec FaultSpec) error {
	c.mu.RLock()
	halves := c.switches[name]
	c.mu.RUnlock()
	if halves == nil {
		if c.crash {
			return fmt.Errorf("cluster: %q is crash-tolerant, no pair to fault", name)
		}
		return fmt.Errorf("cluster: no fault plan for %q (build the cluster with WithFaultPlan)", name)
	}
	sw := halves[half]
	if sw == nil {
		return fmt.Errorf("cluster: %q has no %v half", name, half)
	}
	s, err := spec.spec()
	if err != nil {
		return err
	}
	return sw.Arm(s)
}

// ValueFaultsInjected reports how many value faults have actually fired
// on name's pair (both halves) — zero until an armed fault perturbs an
// output or input. Chaos oracles use it to decide whether a member owes a
// fail-silence conversion.
func (c *Cluster) ValueFaultsInjected(name string) uint64 {
	c.mu.RLock()
	halves := c.switches[name]
	c.mu.RUnlock()
	var n uint64
	for _, sw := range halves {
		n += sw.Injected()
	}
	return n
}

// PairFailed reports whether name's replica pair has started
// fail-signalling (always false for crash-tolerant members). This is the
// local, partition-immune view of the member's health the fail-silence
// oracle checks against.
func (c *Cluster) PairFailed(name string) bool {
	if m := c.Member(name); m != nil && m.nso != nil {
		return m.nso.Pair().Failed()
	}
	return false
}

// SkewMember returns the named member's private clock view, on which the
// chaos plane's clock-skew faults act (Step jumps it, SetDrift changes its
// rate). Nil unless the cluster runs under WithVirtualTime and the member
// exists. Replaced members' replacements get fresh, unskewed clocks.
func (c *Cluster) SkewMember(name string) *clock.Skewed {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.skews[name]
}

// CanInjectFaults reports whether the cluster's transport supports link
// fault injection (partitions, shaping). Chaos schedules require it: on a
// real network Isolate/Heal/ShapeLinks refuse, and a schedule that cannot
// perturb links would be vacuously green.
func (c *Cluster) CanInjectFaults() bool {
	_, ok := c.tr.(transport.FaultInjector)
	return ok
}

// addrsOf enumerates every transport address member name occupies: its
// ORB node if it is crash-tolerant, MemberAddrs otherwise.
func (c *Cluster) addrsOf(name string) []transport.Addr {
	if c.crash {
		return []transport.Addr{newtop.NodeAddr(name)}
	}
	return MemberAddrs(name)
}

// Isolate blocks all traffic between members a and b (every address either
// occupies, both directions). It reports whether the transport supports
// partitions; callers demonstrating failure semantics must check it.
func (c *Cluster) Isolate(a, b string) bool {
	return c.forEachLink(a, b, func(fi transport.FaultInjector, x, y transport.Addr) {
		fi.Block(x, y)
	})
}

// Heal unblocks all traffic between members a and b.
func (c *Cluster) Heal(a, b string) bool {
	return c.forEachLink(a, b, func(fi transport.FaultInjector, x, y transport.Addr) {
		fi.Unblock(x, y)
	})
}

// ShapeLinks applies profile p to every link between members a and b
// (both directions), e.g. to model a slow WAN between two sites.
func (c *Cluster) ShapeLinks(a, b string, p transport.Profile) bool {
	return c.forEachLink(a, b, func(fi transport.FaultInjector, x, y transport.Addr) {
		fi.SetLinkProfile(x, y, p)
	})
}

func (c *Cluster) forEachLink(a, b string, f func(transport.FaultInjector, transport.Addr, transport.Addr)) bool {
	fi, ok := c.tr.(transport.FaultInjector)
	if !ok {
		return false
	}
	for _, x := range c.addrsOf(a) {
		for _, y := range c.addrsOf(b) {
			f(fi, x, y)
		}
	}
	return true
}

// Close stops the auto-heal controller, shuts every member down, then
// the transport if the cluster created it.
func (c *Cluster) Close() {
	if c.healer != nil {
		c.healer.Stop()
	}
	c.mu.Lock()
	members := make([]*Member, 0, len(c.members))
	for _, m := range c.members {
		if m != nil {
			members = append(members, m)
		}
	}
	c.mu.Unlock()
	for _, m := range members {
		m.svc.Close()
	}
	if c.ownsTr && c.tr != nil {
		c.tr.Close()
	}
}
