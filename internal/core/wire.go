package failsignal

import (
	"bytes"
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
	tagFSD                    // the output bytes plus the double-signed digest body that pins them
)

// ClientInput is a request submitted to an FS process by a plain endpoint.
// It is single-signed by the client (input authentication is one of the
// three FS latency sources named in Section 4).
type ClientInput struct {
	Client string // logical name of the sender
	Seq    uint64 // per-client sequence number, for duplicate suppression
	Kind   string // sm.Input kind for the wrapped machine
	Body   []byte // sm.Input payload
	// gather, when not nil, is the payload in gather form instead of Body
	// (see sm.Output.Gather).
	gather *codec.Gather
}

// bodyLen is the length of c's payload.
func (c ClientInput) bodyLen() int {
	if c.gather != nil {
		return c.gather.Len()
	}
	return len(c.Body)
}

// size is the exact length of c's encoding.
func (c ClientInput) size() int { return 4 + len(c.Client) + 8 + 4 + len(c.Kind) + 4 + c.bodyLen() }

// encode appends c's encoding to w, nesting the gather form of its
// payload, if any, by reference in a gather-form writer.
func (c ClientInput) encode(w *codec.Writer) {
	w.String(c.Client)
	w.U64(c.Seq)
	w.String(c.Kind)
	w.Nested32(c.Body, c.gather)
}

// Marshal returns the canonical encoding of c.
func (c ClientInput) Marshal() []byte {
	w := codec.NewWriter(c.size())
	c.encode(w)
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
	// DigestOnly is set on every output body: Output holds the digest
	// form (sig.BodyMemo.Form) of the sm.MarshalOutput bytes over their
	// body regions, never the bytes themselves, so what the pair compares,
	// signs, exchanges and counter-signs is a fixed size whatever the
	// payload. The bytes and the region table travel once, beside the
	// double signature (see tagFSD), and are checked against this digest
	// on receipt, which preserves fail-silence: a valid output still
	// requires both Compare signatures over content that pins every byte
	// of it.
	DigestOnly bool
	Output     []byte // the 32-byte digest; empty for fail-signals
}

// outputBodySize is the length of a digest body's encoding for source.
func outputBodySize(source string) int { return 4 + len(source) + 8 + 1 + 4 + 32 }

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
	form   [32]byte     // tagClient: the digest form the client signed
	tick   time.Time    // tagTick
}

// signClient signs ci as s and returns it as a MsgNew payload, built in
// one gather-form writer: the tag, the client envelope — ci's encoding as
// its body, then a signature over the digest form of the payload up to
// there (hash-then-MAC, so the replica that verifies it hashes each
// application payload once and remembers the digest) — and the region
// table the form was taken over: the body regions of ci's gather form, at
// their place in the payload. The payload is its bytes (g nil), or, when
// ci carries payloads by reference, its gather form (b nil).
func signClient(s sig.Signer, ci ClientInput) (b []byte, g *codec.Gather, err error) {
	n, held, regions := ci.size(), 0, 0
	if ci.gather != nil {
		held, regions = ci.gather.Held(), len(ci.gather.Bodies())
	}
	w := codec.NewGatherWriter(1 + 4 + len(s.ID()) + 4 + n - held + 4 + sig.SignatureSize(s) + 4 + 8*regions)
	w.U8(tagClient)
	w.String(string(s.ID()))
	w.U32(uint32(n))
	ci.encode(w)
	bodies := w.Bodies()
	form := (*sig.BodyMemo)(nil).FormGather(w.Bytes(), bodies)
	own, err := sig.AppendSign(w.Bytes(), s, form[:])
	if err != nil {
		return nil, nil, err
	}
	own = codec.AppendRegionTable(own, bodies)
	if len(bodies) == 0 {
		return own, nil, nil
	}
	return nil, codec.NewGather(own, bodies), nil
}

// encodeFSPayload wraps a double-signed fail-signal as a MsgNew payload.
func encodeFSPayload(dbl sig.Double) []byte {
	w := codec.NewWriter(1 + len(dbl.Marshal()))
	w.U8(tagFS)
	dbl.Encode(w)
	return w.Bytes()
}

// encodeFSDigestHead writes the head of out's tagFSD payload — the one
// form an FS output travels in: the tag, the output's encoding and the
// region table of its payloads (offsets from the payload's start), in a
// gather-form writer whose own bytes have room bytes to spare for the
// double signature the pair appends on match (sig.AppendCounterSign), so
// the output is encoded once, straight into its wire form, and the
// payloads it carries are never copied. head is the own bytes of the whole
// head and signed those of the part the digest form covers (up to the end
// of the output's encoding); bodies are the regions, all inside that
// part: head and bodies are the head's gather form (codec.NewGather), and
// the head itself when bodies is empty. The signatures cover only the
// small digest body; the receiver recomputes the digest form of the bytes
// over the table and refuses a mismatch, so the bytes are exactly as
// tamper-evident as if they were signed directly.
func encodeFSDigestHead(out sm.Output, room int) (head, signed []byte, bodies []codec.Region) {
	n, held, regions := sm.OutputSize(out), 0, 0
	if out.Gather != nil {
		held, regions = out.Gather.Held(), len(out.Gather.Bodies())
	}
	w := codec.NewGatherWriter(1 + 4 + n - held + 4 + 8*regions + room)
	w.U8(tagFSD)
	w.U32(uint32(n))
	sm.EncodeOutput(w, out)
	signed, bodies = w.Bytes(), w.Bodies()
	w.RegionTable(bodies)
	return w.Bytes(), signed[:len(signed):len(signed)], bodies
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
// to the tag. It takes the digest form of what carries body regions
// through memo (nil: hash and remember nothing), and refuses output bytes
// that miss their signed digest. prior, if non-nil, is the payload of
// another copy of the same input this node holds: a payload equal to
// prior, or output bytes equal to prior's, are read from prior, so their
// payloads cost a memcmp, not a second hash, and what the machine steps is
// the slice the memo remembers. The result aliases b (or prior). On an
// error p holds no meaning.
func (p *newPayload) decode(b []byte, memo *sig.BodyMemo, prior []byte) error {
	if len(prior) == len(b) && bytes.Equal(b, prior) {
		b = prior
	}
	r := codec.NewReader(b)
	*p = newPayload{tag: r.U8()}
	switch p.tag {
	case tagClient:
		p.env.Signer, p.env.Body = sig.ID(r.Name()), r.Bytes32()
		signed := b[:r.Pos()]
		p.env.Sig = r.Bytes32()
		bodies := r.RegionTable(signed)
		if err := r.Finish(); err != nil {
			return fmt.Errorf("failsignal: decoding client payload: %w", err)
		}
		var err error
		if p.client, err = UnmarshalClientInput(p.env.Body); err != nil {
			return err
		}
		p.form = memo.Form(signed, bodies)
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
		p.full = r.Bytes32()
		signed := b[:r.Pos()]
		if len(prior) >= len(signed) && bytes.Equal(signed, prior[:len(signed)]) {
			// The same output bytes as the copy this node holds: read them,
			// and the payloads the table marks, from that copy.
			signed = prior[:len(signed):len(signed)]
			p.full = signed[5:]
		}
		bodies := r.RegionTable(signed)
		p.dbl = sig.DecodeDouble(r)
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
		if d := memo.Form(signed, bodies); string(d[:]) != string(p.body.Output) {
			return fmt.Errorf("failsignal: digest payload body does not match its digest")
		}
	default:
		return fmt.Errorf("failsignal: unknown payload tag %d", p.tag)
	}
	return nil
}

// peekKey reads an input's identity straight out of a MsgNew payload: the
// tag, then (past an output's bytes and region table) the first fields of
// the signed body (ClientInput and OutputBody
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
	case tagFS:
		k.kind = keyOutput
	case tagFSD:
		k.kind = keyOutput
		r.Bytes32() // the output bytes
		r.SkipRegionTable()
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
// An input from the replica's own plain endpoint (local, its LocalName) is
// presented as a local call, From "" — how crash NewTOP's invocation layer
// reaches its GC — so the machine can tell its own application's requests
// from any other client's. An FS output is read for its kind and payload
// only: the destinations it was sent to are checked and skipped, never
// built.
func (p *newPayload) toInput(local string) sm.Input {
	switch p.tag {
	case tagClient:
		from := p.client.Client
		if from == local {
			from = ""
		}
		return sm.Input{Kind: p.client.Kind, From: from, Payload: p.client.Body}
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

// gather returns the encoding marshal returns as a header plus a reference
// to Raw, the bytes the transport handed in: the bytes (g nil) when Raw is
// too short to be held, else the gather form (b nil).
func (f fwdPayload) gather() (b []byte, g *codec.Gather) {
	w := codec.NewGatherWriter(8 + 4 + len(f.Raw) - codec.Held(f.Raw))
	w.U64(f.Index)
	w.Body32(f.Raw)
	return w.Encoding()
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
