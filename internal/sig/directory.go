package sig

import (
	"crypto"
	"crypto/rsa"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"fsnewtop/internal/codec"
)

// ErrSchemeConflict is returned when an identity already registered under
// one scheme is re-registered under the other. A silent preference between
// the two materials would let a key for one scheme shadow the other — a
// verification-plane ambiguity no caller ever wants — so the conflict is
// an explicit error. Re-registering the same identity under the same
// scheme (key rotation) is allowed: the new material replaces the old for
// every verify that loads the next snapshot.
var ErrSchemeConflict = errors.New("sig: identity already registered under a different scheme")

// dirSnapshot is one immutable generation of the directory's verification
// material. The verify path loads it with a single atomic operation and
// never takes a lock; registration copies the maps, mutates the copy, and
// publishes it — the copy-on-write discipline netsim's control plane uses
// for its handler table.
type dirSnapshot struct {
	rsa  map[ID]*rsa.PublicKey
	hmac map[ID]*hmacTemplate
}

var emptySnapshot = &dirSnapshot{}

func (s *dirSnapshot) clone() *dirSnapshot {
	next := &dirSnapshot{
		rsa:  make(map[ID]*rsa.PublicKey, len(s.rsa)+1),
		hmac: make(map[ID]*hmacTemplate, len(s.hmac)+1),
	}
	for id, pub := range s.rsa {
		next.rsa[id] = pub
	}
	for id, tmpl := range s.hmac {
		next.hmac[id] = tmpl
	}
	return next
}

// Directory maps identities to their verification material and implements
// Verifier for both schemes. It is safe for concurrent use and the zero
// value is ready to use.
//
// The directory is built for a read-mostly life: registration happens at
// deployment time, verification on every message. Verify takes no locks —
// it loads an immutable copy-on-write snapshot — and every call is a real
// signature check.
type Directory struct {
	mu   sync.Mutex // serialises registration; never taken on verify
	snap atomic.Pointer[dirSnapshot]
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory { return &Directory{} }

// NewDirectoryCache is NewDirectory; the capacity is ignored. The name
// stays only because the benchmark module calls it, and the benchmark's
// next change deletes it (ROADMAP item 4). Nothing else may call it.
func NewDirectoryCache(int) *Directory { return NewDirectory() }

func (d *Directory) snapshot() *dirSnapshot {
	if s := d.snap.Load(); s != nil {
		return s
	}
	return emptySnapshot
}

// RegisterRSA records the public key used to verify id's signatures. It
// fails with ErrSchemeConflict if id already has HMAC material.
func (d *Directory) RegisterRSA(id ID, pub *rsa.PublicKey) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.snapshot()
	if _, clash := cur.hmac[id]; clash {
		return fmt.Errorf("%w: %q has HMAC material, refusing RSA", ErrSchemeConflict, id)
	}
	codec.Intern(string(id))
	next := cur.clone()
	next.rsa[id] = pub
	d.snap.Store(next)
	return nil
}

// RegisterHMAC records the shared key used to verify id's signatures. It
// fails with ErrSchemeConflict if id already has RSA material.
func (d *Directory) RegisterHMAC(id ID, key []byte) error {
	return d.registerHMACTemplate(id, newHMACTemplate(key))
}

// registerHMACTemplate installs an already-built template — the path
// RegisterSigner uses to share the signer's precomputed pad states (and
// runner pool) instead of rebuilding them from the key.
func (d *Directory) registerHMACTemplate(id ID, tmpl *hmacTemplate) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.snapshot()
	if _, clash := cur.rsa[id]; clash {
		return fmt.Errorf("%w: %q has RSA material, refusing HMAC", ErrSchemeConflict, id)
	}
	codec.Intern(string(id))
	next := cur.clone()
	next.hmac[id] = tmpl
	d.snap.Store(next)
	return nil
}

// RegisterSigner registers the verification material for any signer type
// produced by this package.
func (d *Directory) RegisterSigner(s Signer) error {
	switch s := s.(type) {
	case *RSASigner:
		return d.RegisterRSA(s.ID(), s.Public())
	case *HMACSigner:
		return d.registerHMACTemplate(s.ID(), s.tmpl)
	default:
		return fmt.Errorf("sig: cannot extract verification material from %T", s)
	}
}

// IDs returns all registered identities in sorted order.
func (d *Directory) IDs() []ID {
	s := d.snapshot()
	out := make([]ID, 0, len(s.rsa)+len(s.hmac))
	for id := range s.rsa {
		out = append(out, id)
	}
	for id := range s.hmac {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Verify implements Verifier: it resolves id against the current snapshot
// (scheme exclusivity is enforced at registration, so at most one material
// answers), then runs that scheme's check.
func (d *Directory) Verify(id ID, data, sigBytes []byte) error {
	s := d.snapshot()
	if tmpl := s.hmac[id]; tmpl != nil {
		if !tmpl.verify(data, sigBytes) {
			return fmt.Errorf("%w: HMAC check for %q", ErrBadSignature, id)
		}
		return nil
	}
	pub, ok := s.rsa[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSigner, id)
	}
	md := md5BufPool.Get().(*md5Buf)
	md.sum(data)
	err := rsa.VerifyPKCS1v15(pub, crypto.MD5, md.b[:], sigBytes)
	md5BufPool.Put(md)
	if err != nil {
		return fmt.Errorf("%w: RSA check for %q", ErrBadSignature, id)
	}
	return nil
}

// NodeVerifier is one modeled node's verifier over a shared Directory: it
// checks every signature against the directory's material and counts the
// checks. A deployment that models many nodes in one process gives each
// node (each FS replica, each receiving endpoint) its own, so every node
// pays — and reports — its own crypto cost, as on separate machines,
// while the material stays shared and copy-on-write.
type NodeVerifier struct {
	dir    *Directory
	checks atomic.Uint64
}

// NewNodeVerifier returns a verifier for one node over dir.
func NewNodeVerifier(dir *Directory) *NodeVerifier { return &NodeVerifier{dir: dir} }

// NewCachedVerifier is NewNodeVerifier; the capacity is ignored. The name
// stays only because the benchmark module calls it, and the benchmark's
// next change deletes it (ROADMAP item 4). Nothing else may call it.
func NewCachedVerifier(dir *Directory, _ int) *NodeVerifier { return NewNodeVerifier(dir) }

// Verify implements Verifier.
func (v *NodeVerifier) Verify(id ID, data, sigBytes []byte) error {
	v.checks.Add(1)
	return v.dir.Verify(id, data, sigBytes)
}

// Checks returns the number of signatures this node has checked.
func (v *NodeVerifier) Checks() uint64 { return v.checks.Load() }
