package cluster

import (
	"fmt"

	failsignal "fsnewtop/internal/core"
	"fsnewtop/internal/fsnewtop"
	"fsnewtop/internal/newtop"
	"fsnewtop/internal/sig"
	"fsnewtop/transport"
)

// MemberAddrs is the one address plan of a member, whichever stack it
// runs: every transport address it may occupy on the wire — a crash
// member's ORB node, or a fail-signal member's pair leader and follower
// FSOs and its invocation-layer endpoint. Deployment tooling uses it to
// expand a member-level placement manifest ("m03 lives at host:port")
// into the address-book entries a transport needs, and the cluster's
// link faults walk it.
func MemberAddrs(name string) []transport.Addr {
	return []transport.Addr{
		newtop.NodeAddr(name),
		failsignal.LeaderAddr(name),
		failsignal.FollowerAddr(name),
		fsnewtop.InvAddr(name),
	}
}

// NewSolo assembles a cluster hosting exactly ONE local member, whose
// peers live in other processes (or other transports). It is the
// single-member bring-up of the deploy plane: one worker process calls
// NewSolo for the member it hosts, and every remote peer is seeded into
// the local stack's directories — a fail-signal member's fail-signal and
// key directories, a crash member's ORB naming — so the member exchanges
// protocol traffic with peers it shares no memory with.
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

	c := newCluster(cfg, []string{name})
	if err := c.seedRemotePeers(peers); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	m, err := c.buildMember(name, peers)
	if err != nil {
		return nil, fmt.Errorf("cluster: building solo member %q: %w", name, err)
	}
	c.members[name] = m
	return c, nil
}

// seedRemotePeers registers each remote member's deployment records with
// the local stack, after which the local member resolves (and, fail-signal,
// verifies) remote traffic exactly as if the peers shared its process. A
// crash member's ORB naming binds each peer's GC object to its node. A
// fail-signal member's directory gets each peer's FS pair (addresses and
// compare identities) and invocation endpoint, and its key directory the
// derived HMAC verification keys of all three identities.
func (c *Cluster) seedRemotePeers(peers []string) error {
	for _, p := range peers {
		if c.crash {
			c.naming.Bind(newtop.GCRef(p), newtop.NodeAddr(p))
			continue
		}
		c.fab.Dir.RegisterFS(p,
			failsignal.LeaderAddr(p), failsignal.FollowerAddr(p),
			failsignal.LeaderID(p), failsignal.FollowerID(p))
		c.fab.Dir.RegisterPlain(string(newtop.InvRef(p)), fsnewtop.InvAddr(p))
		for _, id := range []sig.ID{
			failsignal.LeaderID(p),
			failsignal.FollowerID(p),
			sig.ID(newtop.InvRef(p)),
		} {
			// Can only fail on a scheme conflict, and the solo constructor
			// already refuses mixed schemes — but a silent skip here would
			// surface as an unverifiable peer at runtime.
			if err := c.fab.Keys.RegisterHMAC(id, fsnewtop.DerivedHMACKey(id)); err != nil {
				return fmt.Errorf("seeding peer %q key %q: %w", p, id, err)
			}
		}
	}
	return nil
}
