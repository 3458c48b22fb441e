package failsignal

import (
	"fmt"
	"time"

	"fsnewtop/internal/codec"
	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
)

// Network message kinds used by the fail-signal machinery. The names match
// the methods of the paper's Appendix A where one exists.
const (
	// MsgNew carries an external input to an FS replica (receiveNew).
	MsgNew = "fs.new"
	// MsgFwd carries a leader-ordered input to the follower (receiveDouble),
	// and, in the reverse direction, a follower relay after timeout t1.
	MsgFwd = "fs.fwd"
	// MsgSingle carries a single-signed candidate output between the two
	// Compare threads (receiveSingle).
	MsgSingle = "fs.single"
	// MsgOut carries a double-signed FS output to a plain (non-FS) endpoint.
	MsgOut = "fs.out"
)

// InputFailSignal is the sm.Input kind delivered to the wrapped machine
// when a verified fail-signal arrives from another FS process. Input.From
// names the signalling process. The machine's suspector treats this as a
// suspicion that cannot be false (Section 3.1).
const InputFailSignal = "fs.failsignal"

// Payload tags distinguishing the contents of a MsgNew payload.
const (
	tagClient byte = iota + 1 // single-signed ClientInput
	tagFS                     // double-signed fail-signal of an FS process (no output travels bare)
	tagTick                   // leader-generated tick (only on the fwd link)
	tagFSD                    // double-signed digest body plus the output bytes it pins
)

// ClientInput is a request submitted to an FS process by a plain endpoint.
// It is single-signed by the client (input authentication is one of the
// three FS latency sources named in Section 4).
type ClientInput struct {
	Client string // logical name of the sender
	Seq    uint64 // per-client sequence number, for duplicate suppression
	Kind   string // sm.Input kind for the wrapped machine
	Body   []byte // sm.Input payload
}

// Marshal returns the canonical encoding of c.
func (c ClientInput) Marshal() []byte {
	w := codec.NewWriter(4 + len(c.Client) + 8 + 4 + len(c.Kind) + 4 + len(c.Body))
	w.String(c.Client)
	w.U64(c.Seq)
	w.String(c.Kind)
	w.Bytes32(c.Body)
	return w.Bytes()
}

// UnmarshalClientInput decodes a ClientInput.
func UnmarshalClientInput(b []byte) (ClientInput, error) {
	r := codec.NewReader(b)
	c := ClientInput{Client: r.Name(), Seq: r.U64(), Kind: r.Name()}
	c.Body = r.Bytes32()
	if err := r.Finish(); err != nil {
		return ClientInput{}, fmt.Errorf("failsignal: decoding client input: %w", err)
	}
	return c, nil
}

// OutputBody is the content that a Compare thread signs: the digest of one
// sequenced output of the wrapped machine, or the process's fail-signal.
type OutputBody struct {
	Source     string // logical name of the producing FS process
	Seq        uint64 // output sequence number (0 for fail-signals)
	FailSignal bool
	// DigestOnly is set on every output body: Output holds
	// sig.Digest(sm.MarshalOutput bytes), never the bytes themselves, so
	// what the pair compares, signs, exchanges and counter-signs is a fixed
	// size whatever the payload. The bytes travel once, beside the double
	// signature (see tagFSD), and are checked against this digest on
	// receipt, which preserves fail-silence: a valid output still requires
	// both Compare signatures over content that pins every byte of it.
	DigestOnly bool
	Output     []byte // the 32-byte digest; empty for fail-signals
}

// OutputBody flag bits. The flags byte occupies the slot the encoding
// historically spent on a single FailSignal bool (written as u8 0/1), so
// every pre-digest-compare body encodes byte-identically to before.
const (
	obFlagFailSignal byte = 1 << iota
	obFlagDigestOnly
)

// Marshal returns the canonical encoding of o. Canonical matters: output
// comparison is equality of these bytes.
func (o OutputBody) Marshal() []byte {
	w := codec.NewWriter(4 + len(o.Source) + 8 + 1 + 4 + len(o.Output))
	w.String(o.Source)
	w.U64(o.Seq)
	var flags byte
	if o.FailSignal {
		flags |= obFlagFailSignal
	}
	if o.DigestOnly {
		flags |= obFlagDigestOnly
	}
	w.U8(flags)
	w.Bytes32(o.Output)
	return w.Bytes()
}

// UnmarshalOutputBody decodes an OutputBody.
func UnmarshalOutputBody(b []byte) (OutputBody, error) {
	r := codec.NewReader(b)
	o := OutputBody{Source: r.Name(), Seq: r.U64()}
	flags := r.U8()
	o.FailSignal = flags&obFlagFailSignal != 0
	o.DigestOnly = flags&obFlagDigestOnly != 0
	o.Output = r.Bytes32()
	if err := r.Finish(); err != nil {
		return OutputBody{}, fmt.Errorf("failsignal: decoding output body: %w", err)
	}
	if flags&^(obFlagFailSignal|obFlagDigestOnly) != 0 {
		return OutputBody{}, fmt.Errorf("failsignal: output body with unknown flags %#x", flags)
	}
	return o, nil
}

// newPayload is the decoded form of a MsgNew payload. At ~400 bytes it is
// decoded into storage its holder owns (decode) and passed by pointer from
// there on; it is never copied whole on the input path.
type newPayload struct {
	tag    byte
	env    sig.Envelope // tagClient
	client ClientInput  // tagClient
	dbl    sig.Double   // tagFS, tagFSD
	body   OutputBody   // tagFS, tagFSD
	full   []byte       // tagFSD: the output bytes the body's digest pins
	tick   time.Time    // tagTick
}

// encodeClientPayload wraps a signed client envelope as a MsgNew payload.
func encodeClientPayload(env sig.Envelope) []byte {
	w := codec.NewWriter(1 + len(env.Marshal()))
	w.U8(tagClient)
	env.Encode(w)
	return w.Bytes()
}

// encodeFSPayload wraps a double-signed fail-signal as a MsgNew payload.
func encodeFSPayload(dbl sig.Double) []byte {
	w := codec.NewWriter(1 + len(dbl.Marshal()))
	w.U8(tagFS)
	dbl.Encode(w)
	return w.Bytes()
}

// encodeFSDigestPayload wraps a double-signed digest body plus the output
// bytes its digest pins — the one form an FS output travels in. The
// signatures cover only the small digest body; the receiver rehashes full
// and refuses a mismatch, so the bytes are exactly as tamper-evident as if
// they were signed directly.
func encodeFSDigestPayload(dbl sig.Double, full []byte) []byte {
	w := codec.NewWriter(1 + len(dbl.Marshal()) + 4 + len(full))
	w.U8(tagFSD)
	dbl.Encode(w)
	w.Bytes32(full)
	return w.Bytes()
}

// encodeTickPayload wraps a tick instant as a payload for the fwd link.
func encodeTickPayload(now time.Time) []byte {
	w := codec.NewWriter(9)
	w.U8(tagTick)
	w.Time(now)
	return w.Bytes()
}

// decode parses a MsgNew (or fwd-link) payload into p, which it
// overwrites whole, without verifying signatures; callers verify according
// to the tag. The result aliases b. On an error p holds no meaning.
func (p *newPayload) decode(b []byte) error {
	r := codec.NewReader(b)
	*p = newPayload{tag: r.U8()}
	switch p.tag {
	case tagClient:
		p.env = sig.DecodeEnvelope(r)
		if err := r.Finish(); err != nil {
			return fmt.Errorf("failsignal: decoding client payload: %w", err)
		}
		var err error
		if p.client, err = UnmarshalClientInput(p.env.Body); err != nil {
			return err
		}
	case tagFS:
		p.dbl = sig.DecodeDouble(r)
		if err := r.Finish(); err != nil {
			return fmt.Errorf("failsignal: decoding FS payload: %w", err)
		}
		var err error
		if p.body, err = UnmarshalOutputBody(p.dbl.Body); err != nil {
			return err
		}
		if !p.body.FailSignal || p.body.DigestOnly {
			// Only a fail-signal travels without bytes: a digest body alone
			// names content it does not carry.
			return fmt.Errorf("failsignal: output body without its output")
		}
	case tagTick:
		p.tick = r.Time()
		if err := r.Finish(); err != nil {
			return fmt.Errorf("failsignal: decoding tick payload: %w", err)
		}
	case tagFSD:
		p.dbl = sig.DecodeDouble(r)
		p.full = r.Bytes32()
		if err := r.Finish(); err != nil {
			return fmt.Errorf("failsignal: decoding FS digest payload: %w", err)
		}
		var err error
		if p.body, err = UnmarshalOutputBody(p.dbl.Body); err != nil {
			return err
		}
		if !p.body.DigestOnly || p.body.FailSignal {
			return fmt.Errorf("failsignal: digest payload with non-digest body")
		}
		if d := sig.Digest(p.full); string(d[:]) != string(p.body.Output) {
			return fmt.Errorf("failsignal: digest payload body does not match its digest")
		}
	default:
		return fmt.Errorf("failsignal: unknown payload tag %d", p.tag)
	}
	return nil
}

// peekKey reads an input's identity straight out of a MsgNew payload: the
// tag, then the first fields of the signed body (ClientInput and OutputBody
// both open with the source name and its sequence number). It touches a few
// header bytes, copies nothing, and reads the very bytes newPayload.decode
// decodes, so the key probed before verification is the key of the input
// verified after it. False for ticks and anything it cannot parse.
func peekKey(b []byte) (wireKey, bool) {
	r := codec.NewReader(b)
	var k wireKey
	switch r.U8() {
	case tagClient:
		k.kind = keyClient
	case tagFS, tagFSD:
		k.kind = keyOutput
	default:
		return wireKey{}, false // a tick: no body to read (or fail on)
	}
	r.Bytes32() // first signer
	br := codec.NewReader(r.Bytes32())
	k.source, k.seq = br.Bytes32(), br.U64()
	if k.kind == keyOutput && br.U8()&obFlagFailSignal != 0 {
		k.kind, k.seq = keyFailSignal, 0
	}
	if r.Err() != nil || br.Err() != nil {
		return wireKey{}, false
	}
	return k, true
}

// toInput converts a verified payload into the sm.Input the machine sees.
// An FS output is read for its kind and payload only: the destinations it
// was sent to are checked and skipped, never built.
func (p *newPayload) toInput() sm.Input {
	switch p.tag {
	case tagClient:
		return sm.Input{Kind: p.client.Kind, From: p.client.Client, Payload: p.client.Body}
	case tagFS, tagFSD:
		if p.body.FailSignal {
			return sm.Input{Kind: InputFailSignal, From: p.body.Source}
		}
		in, err := sm.OutputInput(p.full, p.body.Source)
		if err != nil {
			// Verified content that fails to decode can only happen if the
			// sender pair double-signed garbage; surface it as an opaque
			// input so both replicas handle it identically.
			return sm.Input{Kind: "fs.undecodable", From: p.body.Source}
		}
		return in
	case tagTick:
		return sm.Input{Kind: sm.TickKind, Payload: sm.EncodeTick(p.tick)}
	default:
		return sm.Input{Kind: "fs.unknown"}
	}
}

// fwdPayload is what the leader sends to the follower for each ordered
// input: the order index plus the original authenticated wire bytes, so the
// follower re-verifies authenticity independently (a faulty leader cannot
// forge inputs past the follower, by A5).
type fwdPayload struct {
	Index uint64
	Raw   []byte
}

func (f fwdPayload) marshal() []byte {
	w := codec.NewWriter(8 + 4 + len(f.Raw))
	w.U64(f.Index)
	w.Bytes32(f.Raw)
	return w.Bytes()
}

func unmarshalFwdPayload(b []byte) (fwdPayload, error) {
	r := codec.NewReader(b)
	f := fwdPayload{Index: r.U64()}
	f.Raw = r.Bytes32()
	if err := r.Finish(); err != nil {
		return fwdPayload{}, fmt.Errorf("failsignal: decoding fwd payload: %w", err)
	}
	return f, nil
}

// failSignalBody returns the canonical fail-signal OutputBody for an FS
// process. Both Compare threads construct the identical body at start-up,
// so either one's counter-signature over the other's envelope yields the
// unique, verifiable fail-signal of the process.
func failSignalBody(name string) OutputBody {
	return OutputBody{Source: name, FailSignal: true}
}
