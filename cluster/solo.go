package cluster

import (
	"fmt"

	failsignal "fsnewtop/internal/core"
	"fsnewtop/internal/faults"
	"fsnewtop/internal/fsnewtop"
	"fsnewtop/internal/newtop"
	"fsnewtop/internal/sig"
	"fsnewtop/transport"
)

// MemberAddrs enumerates every transport address a fail-signal member
// occupies on the wire: its pair's leader and follower FSOs and its
// invocation-layer endpoint. Deployment tooling uses it to
// expand a member-level placement manifest ("m03 lives at host:port")
// into the address-book entries a transport needs.
func MemberAddrs(name string) []transport.Addr {
	return []transport.Addr{
		failsignal.LeaderAddr(name),
		failsignal.FollowerAddr(name),
		fsnewtop.InvAddr(name),
	}
}

// NewSolo assembles a cluster hosting exactly ONE local fail-signal
// member, whose peers live in other processes (or other transports). It
// is the single-member bring-up of the deploy plane: one worker process
// calls NewSolo for the member it hosts, and every remote peer is seeded
// into the local fail-signal directory and key directory so the member
// can exchange verified protocol traffic with pairs it shares no memory
// with.
//
// peers names the remote members (watchers of this member's fail-signal
// and vice versa); the roster is the deployment's full membership minus
// name. Group membership is separate: the returned member joins groups
// via Member.Join (static bootstrap, all processes joining with the same
// roster) or Member.JoinExisting (dynamic admission into an
// already-running remote group through the PR 7 join protocol — ask,
// state snapshot, admission view).
//
// Requirements, all checked loudly:
//   - WithTransport is mandatory: a solo member over a private simulator
//     would be a cluster of one, not a member of a distributed deployment.
//     The caller keeps transport ownership and must have seeded its
//     address resolution (e.g. tcpnet's AddrBook) with the peers'
//     endpoints — see tcpnet.AddrBook.LoadPeers.
//   - Fail-signal mode only: the crash baseline's ORB naming is an
//     in-process object with no remote resolution, so crash-tolerant
//     members cannot span processes.
//   - HMAC signing only (no WithRSA): cross-process verification relies
//     on the deterministic key derivation fsnewtop.DerivedHMACKey; RSA
//     keys are minted at signer construction and would need a real
//     key-distribution channel.
//   - No WithAutoHeal: remediation is a deployment-controller concern in
//     multi-process clusters (respawning a process, not an object).
func NewSolo(name string, peers []string, opts ...Option) (*Cluster, error) {
	cfg := newConfig(opts)
	if name == "" {
		return nil, fmt.Errorf("cluster: solo member needs a name")
	}
	if cfg.tr == nil {
		return nil, fmt.Errorf("cluster: solo bring-up needs WithTransport (the deployment's shared network)")
	}
	if cfg.crash {
		return nil, fmt.Errorf("cluster: solo bring-up refused: fail-signal only (the crash baseline's ORB naming cannot span processes)")
	}
	if cfg.rsa {
		return nil, fmt.Errorf("cluster: solo bring-up refused: HMAC-only (RSA keys cannot be derived cross-process; see fsnewtop.DerivedHMACKey)")
	}
	if cfg.autoHeal {
		return nil, fmt.Errorf("cluster: solo members cannot auto-heal (respawning a process is the deploy controller's job)")
	}
	seen := map[string]bool{name: true}
	for _, p := range peers {
		if p == "" || seen[p] {
			return nil, fmt.Errorf("cluster: solo peer names must be unique, non-empty and distinct from %q (got %q)", name, p)
		}
		seen[p] = true
	}

	c := &Cluster{
		tr:      cfg.tr,
		cfg:     cfg,
		names:   []string{name},
		members: make(map[string]*Member, 1),
		groups:  make(map[string]bool),
		gen:     make(map[string]int),
	}
	c.fab = fsnewtop.NewFabric(c.tr, cfg.clk)
	c.fab.Trace = cfg.traceReg
	if cfg.faultPlan {
		c.switches = make(map[string]map[Half]*faults.Switch, 1)
	}
	if err := seedRemotePeers(c.fab, peers); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	m, err := c.buildMember(name, peers)
	if err != nil {
		return nil, fmt.Errorf("cluster: building solo member %q: %w", name, err)
	}
	c.members[name] = m
	return c, nil
}

// seedRemotePeers registers each remote member's deployment records into
// a local fabric: its FS pair (addresses + compare identities) and its
// invocation endpoint in the fail-signal directory, and the derived HMAC
// verification keys for all three identities in the key directory. After
// seeding, the local member resolves and verifies remote traffic exactly
// as if the peers shared its fabric.
func seedRemotePeers(fab *fsnewtop.Fabric, peers []string) error {
	for _, p := range peers {
		fab.Dir.RegisterFS(p,
			failsignal.LeaderAddr(p), failsignal.FollowerAddr(p),
			failsignal.LeaderID(p), failsignal.FollowerID(p))
		fab.Dir.RegisterPlain(string(newtop.InvRef(p)), fsnewtop.InvAddr(p))
		for _, id := range []sig.ID{
			failsignal.LeaderID(p),
			failsignal.FollowerID(p),
			sig.ID(newtop.InvRef(p)),
		} {
			// Can only fail on a scheme conflict, and the solo constructor
			// already refuses mixed schemes — but a silent skip here would
			// surface as an unverifiable peer at runtime.
			if err := fab.Keys.RegisterHMAC(id, fsnewtop.DerivedHMACKey(id)); err != nil {
				return fmt.Errorf("seeding peer %q key %q: %w", p, id, err)
			}
		}
	}
	return nil
}
