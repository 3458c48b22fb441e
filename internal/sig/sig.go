// Package sig implements the message signing and authentication substrate
// assumed by the paper (assumption A5, Section 2.1): a process on a correct
// node can sign the messages it sends, and a signed message can neither be
// forged nor undetectably altered by a process on another node.
//
// Two schemes are provided:
//
//   - RSA over an MD5 digest (PKCS#1 v1.5) — the scheme the paper's
//     prototype used ("MD5 using RSA encryption signature algorithm",
//     Section 4). MD5 is cryptographically broken today; it is kept here
//     for fidelity to the measured system, and because the performance
//     experiments (Figures 6-8) include its cost on the output path.
//   - HMAC-SHA256 with pairwise-shared keys — a fast symmetric substitute
//     used in unit tests where thousands of signatures are produced.
//
// Both schemes implement the same Signer/Verifier interfaces, so every
// protocol component is parameterised over the scheme.
//
// The package is the hottest part of the FS output path — every output is
// double-signed and every receiver re-verifies both signatures — so it is
// built as a verification plane rather than a convenience wrapper: the
// Directory's verify path is lock-free over a copy-on-write snapshot and
// memoises successful checks by content digest (see directory.go and
// cache.go), HMAC signing restores precomputed pad states from a pool
// instead of rebuilding the transform per message (hmac.go), and
// envelopes carry their wire form so counter-signing and verification
// never re-marshal (envelope.go).
package sig

import (
	"crypto"
	"crypto/md5"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// ID names a signing principal (a node-resident process such as a Compare
// thread, or a whole middleware endpoint).
type ID string

// Signer produces signatures bound to a single identity.
type Signer interface {
	// ID returns the identity whose key this signer holds.
	ID() ID
	// Sign returns a signature over data.
	Sign(data []byte) ([]byte, error)
}

// Verifier checks signatures claimed to originate from an identity.
type Verifier interface {
	// Verify returns nil iff sig is a valid signature by id over data.
	Verify(id ID, data, sig []byte) error
}

// ErrUnknownSigner is returned when no verification material is registered
// for the claimed identity.
var ErrUnknownSigner = errors.New("sig: unknown signer identity")

// ErrBadSignature is returned when verification material is present but the
// signature does not verify.
var ErrBadSignature = errors.New("sig: signature verification failed")

// --- RSA over MD5 (the paper's scheme) ---

// RSAKeySize is the default modulus size in bits. 1024 bits matches the
// era of the paper's prototype and keeps signing cost realistic without
// dominating the benchmarks.
const RSAKeySize = 1024

// md5Buf is a pooled MD5 digest buffer: the digest slice handed to the
// rsa package escapes, so without pooling every RSA sign/verify heap-
// allocates its 16-byte digest.
type md5Buf struct {
	b [md5.Size]byte
}

func (m *md5Buf) sum(data []byte) { m.b = md5.Sum(data) }

var md5BufPool = sync.Pool{New: func() any { return new(md5Buf) }}

// RSASigner signs with an RSA private key over an MD5 digest.
type RSASigner struct {
	id   ID
	priv *rsa.PrivateKey
}

// NewRSASigner generates a fresh keypair for id using randomness from rnd
// (crypto/rand.Reader if nil).
func NewRSASigner(id ID, bits int, rnd io.Reader) (*RSASigner, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	if bits == 0 {
		bits = RSAKeySize
	}
	priv, err := rsa.GenerateKey(rnd, bits)
	if err != nil {
		return nil, fmt.Errorf("sig: generating RSA key for %q: %w", id, err)
	}
	return &RSASigner{id: id, priv: priv}, nil
}

// ID implements Signer.
func (s *RSASigner) ID() ID { return s.id }

// Public returns the public half of the signer's key, for registration in
// a Directory.
func (s *RSASigner) Public() *rsa.PublicKey { return &s.priv.PublicKey }

// Sign implements Signer: MD5 digest, then PKCS#1 v1.5.
func (s *RSASigner) Sign(data []byte) ([]byte, error) {
	digest := md5BufPool.Get().(*md5Buf)
	digest.sum(data)
	sigBytes, err := rsa.SignPKCS1v15(nil, s.priv, crypto.MD5, digest.b[:])
	md5BufPool.Put(digest)
	if err != nil {
		return nil, fmt.Errorf("sig: RSA signing as %q: %w", s.id, err)
	}
	return sigBytes, nil
}

// --- HMAC-SHA256 (fast symmetric scheme for tests) ---

// HMACSigner signs with a per-identity symmetric key. All parties that
// must verify the identity share the key via the Directory; this models a
// trusted-key-distribution variant of A5 and is orders of magnitude faster
// than RSA, which keeps large unit-test suites quick.
//
// The signer precomputes its HMAC pad states once at construction and
// pools the per-message digest pair, so AppendSign into a buffer with
// capacity performs no allocations. The raw key is not retained: the pad
// states are all signing and registration (RegisterSigner shares the
// template) ever need.
type HMACSigner struct {
	id   ID
	tmpl *hmacTemplate
}

// NewHMACSigner returns a signer for id with the given symmetric key.
func NewHMACSigner(id ID, key []byte) *HMACSigner {
	return &HMACSigner{id: id, tmpl: newHMACTemplate(key)}
}

// ID implements Signer.
func (s *HMACSigner) ID() ID { return s.id }

// Sign implements Signer.
func (s *HMACSigner) Sign(data []byte) ([]byte, error) {
	return s.tmpl.appendMAC(make([]byte, 0, sha256.Size), data), nil
}

// AppendSign appends the signature over data to dst and returns the
// extended slice. With sha256.Size spare capacity in dst it performs no
// allocations; it never fails for this scheme.
func (s *HMACSigner) AppendSign(dst, data []byte) ([]byte, error) {
	return s.tmpl.appendMAC(dst, data), nil
}

// Digest returns the content digest used to compare replica outputs and to
// key candidate-message pools. SHA-256 rather than MD5: comparison keys are
// internal and gain nothing from scheme fidelity, and collision resistance
// here protects the self-checking property itself.
func Digest(data []byte) [32]byte {
	digests.Add(1)
	return sha256.Sum256(data)
}

// digests counts Digest calls. One content hash per node per message is a
// promise of the FS data path (a follower does not re-hash bytes it
// already verified); the regression tests fence it with this counter.
var digests atomic.Uint64

// Digests returns the number of Digest calls made so far. Test
// instrumentation, like WireEncodes.
func Digests() uint64 { return digests.Load() }
