package sig

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"fsnewtop/internal/codec"
)

// The batch plane: one signature, and so one verification, covering a
// whole run of items. The FS output path already amortizes structurally —
// a coalesced KindBatch output is one OutputBody, hence one double-sign
// round for N application messages — and this file supplies the generic
// primitive underneath: a digest chain binding an ordered item sequence
// into one 32-byte commitment, an envelope carrying a single signature
// over that commitment, and a memo fast path (VerifyBatchDigest) so the
// n receivers of one batch pay the RSA/HMAC check once per node, exactly
// like single-message envelopes do.

// batchDomain separates batch signatures from every other signed form: a
// signature over a batch commitment must never verify as a signature over
// message content, and vice versa.
const batchDomain byte = 0xB7

// batchSigLen is the length of the canonical signed form: domain byte,
// u32 item count, 32-byte chain commitment.
const batchSigLen = 1 + 4 + 32

// batchSigData writes the canonical signed form of a batch commitment
// into a fixed-size array, so callers can keep it on the stack.
func batchSigData(count uint32, chain [32]byte) [batchSigLen]byte {
	var b [batchSigLen]byte
	b[0] = batchDomain
	binary.BigEndian.PutUint32(b[1:5], count)
	copy(b[5:], chain[:])
	return b
}

// DigestChain accumulates an ordered sequence of item digests into one
// 32-byte commitment: chain_i = SHA-256(chain_{i-1} ‖ digest(item_i)),
// starting from the zero state. The chain pins both content and order —
// reordering two items changes the commitment — which is what lets one
// signature stand in for N.
type DigestChain struct {
	state [32]byte
	count uint32
}

// Add folds one item into the chain.
func (c *DigestChain) Add(item []byte) {
	c.AddDigest(Digest(item))
}

// AddDigest folds an already-hashed item into the chain — the path for
// callers that computed the item digest anyway (the compare plane always
// has it).
func (c *DigestChain) AddDigest(d [32]byte) {
	var buf [64]byte
	copy(buf[:32], c.state[:])
	copy(buf[32:], d[:])
	c.state = sha256.Sum256(buf[:])
	c.count++
}

// Len returns the number of items folded in.
func (c *DigestChain) Len() int { return int(c.count) }

// Sum returns the current commitment.
func (c *DigestChain) Sum() [32]byte { return c.state }

// BatchEnvelope is one signature covering a digest chain's commitment:
// the batch-plane analogue of Envelope. It does not carry the items —
// transport framing does — only the commitment the receiver must
// reconstruct from the items it received.
type BatchEnvelope struct {
	Signer ID
	Count  uint32
	Chain  [32]byte
	Sig    []byte
}

// SignBatch signs the chain's commitment as s.
func SignBatch(s Signer, chain *DigestChain) (BatchEnvelope, error) {
	data := batchSigData(chain.count, chain.state)
	sigBytes, err := s.Sign(data[:])
	if err != nil {
		return BatchEnvelope{}, fmt.Errorf("sig: signing batch of %d: %w", chain.count, err)
	}
	return BatchEnvelope{Signer: s.ID(), Count: chain.count, Chain: chain.state, Sig: sigBytes}, nil
}

// BatchVerifier is implemented by verifiers with a batch-envelope fast
// path: the signed form is rebuilt on the stack and the verification memo
// is probed by its digest, so repeat verifications of one batch envelope
// cost one shard probe — the same discipline DigestVerifier gives
// single-message envelopes.
type BatchVerifier interface {
	// VerifyBatchDigest returns nil iff sig is a valid signature by id
	// over the canonical form of (count, chain).
	VerifyBatchDigest(id ID, count uint32, chain [32]byte, sig []byte) error
}

// Verify checks the envelope against v, reconstructing the signed form
// from the carried commitment. chain, when non-nil, is the receiver's own
// recomputation over the items it received; supplying it makes Verify
// also require that the commitment matches — the check that turns "the
// signer signed some batch" into "the signer signed these items in this
// order".
func (e BatchEnvelope) Verify(v Verifier, chain *DigestChain) error {
	if chain != nil && (chain.count != e.Count || chain.state != e.Chain) {
		return fmt.Errorf("%w: batch commitment mismatch (%d items vs %d signed)", ErrBadSignature, chain.count, e.Count)
	}
	if bv, ok := v.(BatchVerifier); ok {
		return bv.VerifyBatchDigest(e.Signer, e.Count, e.Chain, e.Sig)
	}
	data := batchSigData(e.Count, e.Chain)
	return v.Verify(e.Signer, data[:], e.Sig)
}

// Marshal returns the canonical encoding of e.
func (e BatchEnvelope) Marshal() []byte {
	w := codec.NewWriter(len(e.Signer) + len(e.Sig) + 56)
	w.String(string(e.Signer))
	w.U32(e.Count)
	w.Bytes32(e.Chain[:])
	w.Bytes32(e.Sig)
	return w.Bytes()
}

// UnmarshalBatchEnvelope decodes a BatchEnvelope.
func UnmarshalBatchEnvelope(b []byte) (BatchEnvelope, error) {
	r := codec.NewReader(b)
	e := BatchEnvelope{Signer: ID(r.String()), Count: r.U32()}
	chain := r.Bytes32()
	e.Sig = r.Bytes32()
	if err := r.Finish(); err != nil {
		return BatchEnvelope{}, fmt.Errorf("sig: decoding batch envelope: %w", err)
	}
	if len(chain) != 32 {
		return BatchEnvelope{}, fmt.Errorf("sig: batch envelope chain is %d bytes, want 32", len(chain))
	}
	copy(e.Chain[:], chain)
	return e, nil
}

// VerifyBatchDigest implements BatchVerifier over the directory's memo.
func (d *Directory) VerifyBatchDigest(id ID, count uint32, chain [32]byte, sig []byte) error {
	data := batchSigData(count, chain)
	digest := Digest(data[:])
	return verifyWith(d.snapshot(), d.cache.Load(), id, &digest, data[:], sig)
}

var _ BatchVerifier = (*Directory)(nil)

// VerifyBatchDigest implements BatchVerifier over the node-local memo.
func (v *CachedVerifier) VerifyBatchDigest(id ID, count uint32, chain [32]byte, sig []byte) error {
	data := batchSigData(count, chain)
	digest := Digest(data[:])
	return v.verify(id, &digest, data[:], sig)
}

var _ BatchVerifier = (*CachedVerifier)(nil)
