package failsignal

import (
	"fmt"
	"sort"
	"sync"

	"fsnewtop/internal/sig"
	"fsnewtop/transport"
)

// ProcKind distinguishes fail-signal processes from plain endpoints.
type ProcKind int

const (
	// KindFS is a fail-signal process: a replica pair. Messages to it go
	// to both replicas; messages from it must be double-signed by its
	// Compare pair.
	KindFS ProcKind = iota + 1
	// KindPlain is an ordinary single endpoint (an application process or
	// an invocation layer).
	KindPlain
)

// ProcInfo describes one logical process in the deployment.
type ProcInfo struct {
	Name string
	Kind ProcKind
	// Addrs holds the network addresses: for KindFS, [leader, follower];
	// for KindPlain, Addrs[0] only.
	Addrs [2]transport.Addr
	// CompareIDs are the signing identities of the two Compare threads
	// (KindFS only), [leader, follower].
	CompareIDs [2]sig.ID
}

// Directory maps logical process names to deployment information. Every
// sender resolves destinations through it, and every receiver uses it to
// pin double signatures to the replica pair registered for the claimed
// source. It is safe for concurrent use; the zero value is ready to use.
type Directory struct {
	mu    sync.RWMutex
	procs map[string]ProcInfo
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory { return &Directory{} }

// RegisterFS records a fail-signal process.
func (d *Directory) RegisterFS(name string, leader, follower transport.Addr, leaderID, followerID sig.ID) {
	d.register(ProcInfo{
		Name:       name,
		Kind:       KindFS,
		Addrs:      [2]transport.Addr{leader, follower},
		CompareIDs: [2]sig.ID{leaderID, followerID},
	})
}

// RegisterPlain records an ordinary endpoint.
func (d *Directory) RegisterPlain(name string, addr transport.Addr) {
	d.register(ProcInfo{Name: name, Kind: KindPlain, Addrs: [2]transport.Addr{addr}})
}

func (d *Directory) register(p ProcInfo) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.procs == nil {
		d.procs = make(map[string]ProcInfo)
	}
	d.procs[p.Name] = p
}

// Lookup returns the record for name.
func (d *Directory) Lookup(name string) (ProcInfo, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, ok := d.procs[name]
	if !ok {
		return ProcInfo{}, fmt.Errorf("failsignal: process %q not in directory", name)
	}
	return p, nil
}

// Names returns all registered logical names, sorted.
func (d *Directory) Names() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.procs))
	for n := range d.procs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DestAddrs returns the network addresses a message to name must be sent
// to: both replicas for an FS process, the single address otherwise.
func (d *Directory) DestAddrs(name string) ([]transport.Addr, error) {
	p, err := d.Lookup(name)
	if err != nil {
		return nil, err
	}
	if p.Kind == KindFS {
		return []transport.Addr{p.Addrs[0], p.Addrs[1]}, nil
	}
	return []transport.Addr{p.Addrs[0]}, nil
}

// VerifyFromFS checks that dbl is a valid double-signed message from the
// FS process named source: both signatures verify and the signer pair is
// exactly the pair registered for source. The pair pinning runs first —
// it is a map lookup and two string compares, so a double claiming the
// wrong pair never reaches the signature checks. The checks themselves
// re-marshal nothing (a decoded double carries its wire form).
func (d *Directory) VerifyFromFS(source string, dbl sig.Double, v sig.Verifier) error {
	p, err := d.Lookup(source)
	if err != nil {
		return err
	}
	if p.Kind != KindFS {
		return fmt.Errorf("failsignal: %q is not an FS process", source)
	}
	if !dbl.SignedBy(p.CompareIDs[0], p.CompareIDs[1]) {
		return fmt.Errorf("failsignal: double signature by {%q,%q}, want pair of %q",
			dbl.Signer, dbl.Second, source)
	}
	return dbl.Verify(v)
}
