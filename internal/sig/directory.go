package sig

import (
	"crypto"
	"crypto/rsa"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrSchemeConflict is returned when an identity already registered under
// one scheme is re-registered under the other. A silent preference between
// the two materials would let a key for one scheme shadow the other — a
// verification-plane ambiguity no caller ever wants — so the conflict is
// an explicit error. Re-registering the same identity under the same
// scheme (key rotation) is allowed and invalidates that identity's memo
// entries.
var ErrSchemeConflict = errors.New("sig: identity already registered under a different scheme")

// DigestVerifier is implemented by verifiers that can exploit a
// precomputed content digest. Callers that already hold Digest(data) —
// the FS compare path computes it for output matching anyway — use it via
// Envelope.VerifyDigest to skip the redundant hash on the verify side.
type DigestVerifier interface {
	// VerifyDigest is Verify with digest == Digest(data) supplied by the
	// caller. Passing any other digest is a contract violation: it would
	// poison the verification memo.
	VerifyDigest(id ID, digest [32]byte, data, sig []byte) error
}

// rsaMaterial and hmacMaterial pair one identity's verification material
// with its registration epoch. The epoch is per identity so that key
// rotation invalidates exactly that identity's memoised verifications —
// registering a new member must not flush everyone else's.
type rsaMaterial struct {
	pub   *rsa.PublicKey
	epoch uint64
}

type hmacMaterial struct {
	tmpl  *hmacTemplate
	epoch uint64
}

// dirSnapshot is one immutable generation of the directory's verification
// material. The verify path loads it with a single atomic operation and
// never takes a lock; registration copies the maps, mutates the copy, and
// publishes it — the copy-on-write discipline netsim's control plane uses
// for its handler table.
type dirSnapshot struct {
	rsa  map[ID]*rsaMaterial
	hmac map[ID]*hmacMaterial
}

var emptySnapshot = &dirSnapshot{}

func (s *dirSnapshot) clone() *dirSnapshot {
	next := &dirSnapshot{
		rsa:  make(map[ID]*rsaMaterial, len(s.rsa)+1),
		hmac: make(map[ID]*hmacMaterial, len(s.hmac)+1),
	}
	for id, m := range s.rsa {
		next.rsa[id] = m
	}
	for id, m := range s.hmac {
		next.hmac[id] = m
	}
	return next
}

// lookup resolves one identity's material: exactly one of tmpl/pub is
// non-nil when ok. Scheme exclusivity is enforced at registration.
func (s *dirSnapshot) lookup(id ID) (tmpl *hmacTemplate, pub *rsa.PublicKey, epoch uint64, ok bool) {
	if m := s.hmac[id]; m != nil {
		return m.tmpl, nil, m.epoch, true
	}
	if m := s.rsa[id]; m != nil {
		return nil, m.pub, m.epoch, true
	}
	return nil, nil, 0, false
}

// Directory maps identities to their verification material and implements
// Verifier for both schemes. It is safe for concurrent use and the zero
// value is ready to use.
//
// The directory is built for a read-mostly life: registration happens at
// deployment time, verification on every message. Verify takes no locks —
// it loads an immutable copy-on-write snapshot — and successful checks are
// memoised in a bounded sharded LRU keyed by content digest, so the n
// receivers of one broadcast double-signed output perform each signature
// check once per directory rather than once per receiver.
type Directory struct {
	mu       sync.Mutex // serialises registration; never taken on verify
	snap     atomic.Pointer[dirSnapshot]
	cache    atomic.Pointer[verifyCache]
	cacheCap int // 0 = DefaultCacheEntries, < 0 = memoisation disabled
}

// NewDirectory returns an empty directory with the default verification
// memo (DefaultCacheEntries).
func NewDirectory() *Directory { return &Directory{} }

// NewDirectoryCache returns an empty directory whose verification memo is
// bounded to capacity entries (rounded up to a multiple of the shard
// count, so small capacities hold slightly more than asked). capacity <= 0
// disables memoisation — the right setting when per-node CachedVerifiers
// carry the memos, and for benchmarks that need every verify to do real
// work.
func NewDirectoryCache(capacity int) *Directory {
	d := &Directory{cacheCap: capacity}
	if capacity <= 0 {
		d.cacheCap = -1
	}
	return d
}

func (d *Directory) snapshot() *dirSnapshot {
	if s := d.snap.Load(); s != nil {
		return s
	}
	return emptySnapshot
}

// publishLocked installs the next snapshot and, on first registration,
// the memo cache. Callers hold d.mu.
func (d *Directory) publishLocked(next *dirSnapshot) {
	if d.cacheCap >= 0 && d.cache.Load() == nil {
		cap := d.cacheCap
		if cap == 0 {
			cap = DefaultCacheEntries
		}
		d.cache.Store(newVerifyCache(cap))
	}
	d.snap.Store(next)
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
	var epoch uint64
	if prev := cur.rsa[id]; prev != nil {
		epoch = prev.epoch + 1
	}
	next := cur.clone()
	next.rsa[id] = &rsaMaterial{pub: pub, epoch: epoch}
	d.publishLocked(next)
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
	var epoch uint64
	if prev := cur.hmac[id]; prev != nil {
		epoch = prev.epoch + 1
	}
	next := cur.clone()
	next.hmac[id] = &hmacMaterial{tmpl: tmpl, epoch: epoch}
	d.publishLocked(next)
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

// CacheStats returns the verification memo's counters (all zero when
// memoisation is disabled or nothing has been registered yet).
func (d *Directory) CacheStats() CacheStats {
	if c := d.cache.Load(); c != nil {
		return c.stats()
	}
	return CacheStats{}
}

// Verify implements Verifier.
func (d *Directory) Verify(id ID, data, sigBytes []byte) error {
	return d.verify(id, nil, data, sigBytes)
}

// VerifyDigest implements DigestVerifier: Verify for callers that already
// computed digest = Digest(data). On a memo hit it touches neither the
// data nor the cryptographic material — one shard lock, one map probe and
// one signature compare.
func (d *Directory) VerifyDigest(id ID, digest [32]byte, data, sigBytes []byte) error {
	return d.verify(id, &digest, data, sigBytes)
}

var _ DigestVerifier = (*Directory)(nil)

// verify consults the directory's own memo; CachedVerifier supplies a
// node-local one through the same helper.
func (d *Directory) verify(id ID, digest *[32]byte, data, sigBytes []byte) error {
	return verifyWith(d.snapshot(), d.cache.Load(), id, digest, data, sigBytes)
}

// verifyWith resolves the identity once against snap, consults the memo c
// (may be nil; the content digest is computed only if the caller did not
// supply one), and falls back to the real scheme check on a miss. Only
// successes are memoised.
func verifyWith(snap *dirSnapshot, c *verifyCache, id ID, digest *[32]byte, data, sigBytes []byte) error {
	tmpl, pub, epoch, ok := snap.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSigner, id)
	}
	if c != nil {
		if digest == nil {
			dg := Digest(data)
			digest = &dg
		}
		if c.hit(epoch, id, *digest, sigBytes) {
			return nil
		}
	}
	if tmpl != nil {
		if !tmpl.verify(data, sigBytes) {
			return fmt.Errorf("%w: HMAC check for %q", ErrBadSignature, id)
		}
	} else {
		md := md5BufPool.Get().(*md5Buf)
		md.sum(data)
		err := rsa.VerifyPKCS1v15(pub, crypto.MD5, md.b[:], sigBytes)
		md5BufPool.Put(md)
		if err != nil {
			return fmt.Errorf("%w: RSA check for %q", ErrBadSignature, id)
		}
	}
	if c != nil {
		c.put(epoch, id, *digest, sigBytes)
	}
	return nil
}

// CachedVerifier is one modeled node's view of a shared Directory's
// verification material: it counts the node's signature checks and can hold
// a node-local memo over them. In a deployment that models many nodes in
// one process, sharing one memo through the directory would let one node's
// verification warm another's — a cross-node shortcut no real deployment
// has — so each node (each FS replica, each receiving endpoint) gets its
// own CachedVerifier over a memo-disabled directory: verification material
// stays shared and copy-on-write, accounting and memoisation stay inside
// the node boundary.
type CachedVerifier struct {
	dir    *Directory
	cache  *verifyCache
	checks atomic.Uint64 // checks made with no memo to count them
}

// NewCachedVerifier wraps dir with a node-local memo of the given
// capacity. capacity <= 0 disables memoisation — the same convention as
// NewDirectoryCache — and the verifier then only counts: every check is a
// real one and is reported as a miss. dir is typically built with
// NewDirectoryCache(0) so the directory itself does not also memoise.
func NewCachedVerifier(dir *Directory, capacity int) *CachedVerifier {
	v := &CachedVerifier{dir: dir}
	if capacity > 0 {
		v.cache = newVerifyCache(capacity)
	}
	return v
}

// Verify implements Verifier.
func (v *CachedVerifier) Verify(id ID, data, sigBytes []byte) error {
	return v.verify(id, nil, data, sigBytes)
}

// VerifyDigest implements DigestVerifier; see Directory.VerifyDigest.
func (v *CachedVerifier) VerifyDigest(id ID, digest [32]byte, data, sigBytes []byte) error {
	return v.verify(id, &digest, data, sigBytes)
}

func (v *CachedVerifier) verify(id ID, digest *[32]byte, data, sigBytes []byte) error {
	if v.cache == nil {
		v.checks.Add(1)
	}
	return verifyWith(v.dir.snapshot(), v.cache, id, digest, data, sigBytes)
}

var _ DigestVerifier = (*CachedVerifier)(nil)

// CacheStats returns this node's counters. Misses is the number of real
// signature checks the node made, with or without a memo.
func (v *CachedVerifier) CacheStats() CacheStats {
	if v.cache == nil {
		return CacheStats{Misses: v.checks.Load()}
	}
	return v.cache.stats()
}
