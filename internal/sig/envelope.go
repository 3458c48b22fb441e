package sig

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"fsnewtop/internal/codec"
)

// wireEncodes counts the slow-path wire encodings of envelopes and double
// envelopes. The cached-wire design promises at most one encoding per
// signing operation and none per verification; the regression tests fence
// that promise with this counter.
var wireEncodes atomic.Uint64

// WireEncodes returns the number of slow-path (non-cached) envelope wire
// encodings performed so far. Test instrumentation.
func WireEncodes() uint64 { return wireEncodes.Load() }

// Envelope is a single-signed message: the first half of the paper's
// double-signing discipline. A Compare thread signs each locally produced
// output and forwards the envelope to its remote counterpart
// (receiveSingle in Appendix A).
//
// An envelope produced by SignEnvelope or a Decode/Unmarshal function
// carries its wire form, so Marshal and Encode splice cached bytes instead
// of re-encoding — and CounterSign signs exactly the bytes that were (or
// will be) on the wire. The cached form is invalidated by nothing: treat a
// signed envelope as immutable, as every protocol path does.
type Envelope struct {
	Signer ID
	Body   []byte
	Sig    []byte

	wire []byte // cached Marshal output; nil if never marshaled
}

// SignEnvelope signs body as s's identity. The envelope's wire form is
// built once, with the signature appended in place (see appendSig), so
// Sig is a view of it.
func SignEnvelope(s Signer, body []byte) (Envelope, error) {
	e := Envelope{Signer: s.ID(), Body: body}
	w := codec.NewWriter(e.wireSize() + sigSize(s))
	wireEncodes.Add(1)
	w.String(string(e.Signer))
	w.Bytes32(body)
	wire, sigBytes, err := appendSig(s, w.Bytes(), body)
	if err != nil {
		return Envelope{}, err
	}
	e.Sig, e.wire = sigBytes, wire
	return e, nil
}

// AppendSigner is a Signer that can sign into caller storage. HMACSigner
// is one; SignEnvelope and CounterSign use it to write the signature
// straight into the wire form instead of allocating it apart and copying.
type AppendSigner interface {
	Signer
	// AppendSign appends the signature over data to dst and returns the
	// extended slice.
	AppendSign(dst, data []byte) ([]byte, error)
}

// sigSize is the signature room a wire form is allocated with: exact for
// both schemes, so the form is allocated once.
func sigSize(s Signer) int {
	if r, ok := s.(*RSASigner); ok {
		return r.priv.Size()
	}
	return sha256.Size
}

// appendSig appends s's signature over data to wire as a length-prefixed
// field — the encoding of codec.Writer.Bytes32 — and returns the clipped
// result plus a view of the signature inside it. The result is cached and
// shared, so an append by any holder reallocates.
func appendSig(s Signer, wire, data []byte) (out, sigBytes []byte, err error) {
	if wire, sigBytes, err = appendSigField(s, wire, data); err != nil {
		return nil, nil, err
	}
	return wire[:len(wire):len(wire)], sigBytes, nil
}

// appendSigField is appendSig without the clip, for a writer that goes on
// appending after the signature.
func appendSigField(s Signer, wire, data []byte) (out, sigBytes []byte, err error) {
	at := len(wire)
	wire = append(wire, 0, 0, 0, 0)
	if as, ok := s.(AppendSigner); ok {
		wire, err = as.AppendSign(wire, data)
	} else {
		var sb []byte
		if sb, err = s.Sign(data); err == nil {
			wire = append(wire, sb...)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	binary.BigEndian.PutUint32(wire[at:], uint32(len(wire)-at-4))
	return wire, wire[at+4:], nil
}

// SignatureSize is the length of the signatures s makes, exact for both
// schemes: what a caller building a wire form reserves for one.
func SignatureSize(s Signer) int { return sigSize(s) }

// AppendSign appends s's signature over data to dst as a length-prefixed
// field (the encoding of codec.Writer.Bytes32) and returns the extended
// slice, so a wire form that carries a signature over something other
// than its own bytes is built in one buffer.
func AppendSign(dst []byte, s Signer, data []byte) ([]byte, error) {
	out, _, err := appendSigField(s, dst, data)
	return out, err
}

// Verify checks the envelope's signature.
func (e Envelope) Verify(v Verifier) error {
	return v.Verify(e.Signer, e.Body, e.Sig)
}

// Encode appends the envelope's wire form to w.
func (e Envelope) Encode(w *codec.Writer) {
	if e.wire != nil {
		w.Raw(e.wire)
		return
	}
	e.encodeInto(w)
}

func (e Envelope) encodeInto(w *codec.Writer) {
	wireEncodes.Add(1)
	w.String(string(e.Signer))
	w.Bytes32(e.Body)
	w.Bytes32(e.Sig)
}

// wireSize is the exact length of the envelope's wire form.
func (e Envelope) wireSize() int { return 4 + len(e.Signer) + 4 + len(e.Body) + 4 + len(e.Sig) }

func (e Envelope) encodeSlow() []byte {
	w := codec.NewWriter(e.wireSize())
	e.encodeInto(w)
	b := w.Bytes()
	// Clip: the result is cached and shared, so an append by any holder
	// must reallocate rather than write into the shared backing array.
	return b[:len(b):len(b)]
}

// Marshal returns the envelope's wire form. For a signed or decoded
// envelope this is a cached slice shared with every other caller — it must
// not be modified.
func (e Envelope) Marshal() []byte {
	if e.wire != nil {
		return e.wire
	}
	return e.encodeSlow()
}

// DecodeEnvelope reads an envelope written by Encode. Body, Sig and the
// cached wire form (the exact bytes consumed) are all views of the reader's
// buffer: nothing is copied, and re-marshaling — e.g. to check a
// counter-signature — is free and byte-identical to what the sender
// signed. The signer comes from the name table (a Directory interns every
// identity it registers), so a known signer costs no allocation.
func DecodeEnvelope(r *codec.Reader) Envelope {
	start := r.Pos()
	e := Envelope{
		Signer: ID(r.Name()),
		Body:   r.Bytes32(),
		Sig:    r.Bytes32(),
	}
	e.wire = r.Since(start)
	return e
}

// UnmarshalEnvelope parses a complete envelope from b.
func UnmarshalEnvelope(b []byte) (Envelope, error) {
	r := codec.NewReader(b)
	e := DecodeEnvelope(r)
	if err := r.Finish(); err != nil {
		return Envelope{}, fmt.Errorf("sig: decoding envelope: %w", err)
	}
	return e, nil
}

// Double is a double-signed message — the only valid output form of a
// fail-signal process. The second signature covers the entire single-signed
// envelope (body plus first signature), so a verifier learns both that the
// content was produced and that it was independently checked. The paper:
// "An output from FS p is valid only if it bears the authentic signatures
// of both Compare and Compare'" (Section 2.1).
type Double struct {
	Envelope     // the single-signed inner message
	Second    ID // the counter-signer
	SecondSig []byte

	dblWire []byte // cached Marshal output of the double envelope
}

// CounterSign adds s's signature over the single-signed envelope e. The
// signature covers e's cached wire form when e was signed or decoded by
// this package, so no re-marshal happens; the double's own wire form is
// built once, eagerly, because every counter-signed output is sent, with
// the counter-signature appended in place.
func CounterSign(s Signer, e Envelope) (Double, error) {
	inner := e.Marshal()
	d := Double{Envelope: e, Second: s.ID()}
	w := codec.NewWriter(d.dblWireSize() + sigSize(s))
	wireEncodes.Add(1)
	w.Raw(inner)
	w.String(string(d.Second))
	wire, second, err := appendSig(s, w.Bytes(), inner)
	if err != nil {
		return Double{}, err
	}
	d.SecondSig, d.dblWire = second, wire
	return d, nil
}

// AppendCounterSign is CounterSign writing the double's wire form at the
// end of dst rather than into a buffer of its own: an FS output's payload
// is its output bytes with the double appended, so the pair encodes the
// output once, into the buffer that goes on the wire. It returns the
// extended slice, clipped: it is sent to every destination and shared.
func AppendCounterSign(dst []byte, s Signer, e Envelope) ([]byte, error) {
	inner := e.Marshal()
	wireEncodes.Add(1)
	dst = append(dst, inner...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.ID())))
	dst = append(dst, s.ID()...)
	dst, _, err := appendSig(s, dst, inner)
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// ErrSamePair is returned when a double signature's two signers are the
// same identity: one faulty node must not be able to fabricate a valid FS
// output on its own.
var ErrSamePair = errors.New("sig: double signature by a single identity")

// Verify checks both signatures and that they come from distinct identities.
func (d Double) Verify(v Verifier) error {
	if d.Signer == d.Second {
		return fmt.Errorf("%w: %q", ErrSamePair, d.Signer)
	}
	if err := d.Envelope.Verify(v); err != nil {
		return fmt.Errorf("sig: inner signature: %w", err)
	}
	if err := v.Verify(d.Second, d.Envelope.Marshal(), d.SecondSig); err != nil {
		return fmt.Errorf("sig: counter signature: %w", err)
	}
	return nil
}

// SignedBy reports whether the double signature was produced by exactly
// the pair {a, b}, in either order. Receivers use it to pin an FS output
// to the replica pair registered for the claimed source.
func (d Double) SignedBy(a, b ID) bool {
	return (d.Signer == a && d.Second == b) || (d.Signer == b && d.Second == a)
}

// Encode appends the double envelope's wire form to w.
func (d Double) Encode(w *codec.Writer) {
	if d.dblWire != nil {
		w.Raw(d.dblWire)
		return
	}
	d.encodeDoubleInto(w)
}

func (d Double) encodeDoubleInto(w *codec.Writer) {
	wireEncodes.Add(1)
	d.Envelope.Encode(w)
	w.String(string(d.Second))
	w.Bytes32(d.SecondSig)
}

// dblWireSize is the exact length of the double envelope's wire form.
func (d Double) dblWireSize() int { return d.wireSize() + 4 + len(d.Second) + 4 + len(d.SecondSig) }

func (d Double) encodeSlow() []byte {
	w := codec.NewWriter(d.dblWireSize())
	d.encodeDoubleInto(w)
	b := w.Bytes()
	return b[:len(b):len(b)] // clipped: cached and shared, see Envelope
}

// Marshal returns the double envelope's wire form. For a counter-signed or
// decoded double this is a cached slice shared with every other caller —
// it must not be modified.
func (d Double) Marshal() []byte {
	if d.dblWire != nil {
		return d.dblWire
	}
	return d.encodeSlow()
}

// DecodeDouble reads a double envelope written by Encode, caching both the
// inner envelope's and the double's wire forms from the consumed bytes.
func DecodeDouble(r *codec.Reader) Double {
	start := r.Pos()
	d := Double{
		Envelope:  DecodeEnvelope(r),
		Second:    ID(r.Name()),
		SecondSig: r.Bytes32(),
	}
	d.dblWire = r.Since(start)
	return d
}

// UnmarshalDouble parses a complete double envelope from b.
func UnmarshalDouble(b []byte) (Double, error) {
	r := codec.NewReader(b)
	d := DecodeDouble(r)
	if err := r.Finish(); err != nil {
		return Double{}, fmt.Errorf("sig: decoding double envelope: %w", err)
	}
	return d, nil
}
