package failsignal

import (
	"bytes"
	"fmt"
	"testing"

	"fsnewtop/internal/codec"
	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
)

// TestEncodeHintsAreExact fences every encoder on the FS data path (package
// group, which imports this one, holds the same fence over its own): the
// writer is sized to the byte, so a value is copied into its encoding once
// and never again by a growing buffer (an under-sized hint costs a second
// full copy of an 8 KiB payload and shows up as growslice). The envelope
// encoders clip their result, which would hide a wrong hint from cap ==
// len; package sig holds them to their computed size instead
// (TestWireSizesAreExact). An output's wire form is its head plus the
// double appended on match, sized to the byte together. A gather encoding
// is held to the same rule over its own bytes.
func TestEncodeHintsAreExact(t *testing.T) {
	signer := sig.NewHMACSigner("p#L", []byte("k1"))
	counter := sig.NewHMACSigner("p#F", []byte("k2"))
	for _, size := range []int{16, 8192} {
		v := bytes.Repeat([]byte("v"), size)
		env, err := sig.SignEnvelope(signer, v)
		if err != nil {
			t.Fatal(err)
		}
		dbl, err := sig.CounterSign(counter, env)
		if err != nil {
			t.Fatal(err)
		}
		to := []string{"alice", sm.LocalDelivery, "a-longer-destination-name"}
		out := gatherOutput("gc.data", to, v)
		peerEnv := digestEnvelope(t, counter)
		for name, encode := range map[string]func() []byte{
			"sm.MarshalOutput": func() []byte { return sm.MarshalOutput(sm.Output{Kind: "gc.data", To: to, Payload: v}) },
			"sm.MarshalInput":  func() []byte { return sm.MarshalInput(sm.Input{Kind: "gc.data", From: "alice", Payload: v}) },
			"ClientInput":      ClientInput{Client: "alice/inv", Seq: 1 << 40, Kind: "gc.mcast", Body: v}.Marshal,
			"OutputBody":       OutputBody{Source: "alice", Seq: 7, DigestOnly: true, Output: v}.Marshal,
			"fwdPayload":       fwdPayload{Index: 7, Raw: v}.marshal,
			"fwdPayload.gather": func() []byte {
				return ownOf(fwdPayload{Index: 7, Raw: v}.gather())
			},
			"signClient": func() []byte {
				b, g, _ := signClient(signer, ClientInput{Client: "alice/inv", Seq: 1, Kind: "gc.mcast", gather: out.Gather, Body: out.Payload})
				return ownOf(b, g)
			},
			"encodeFSPayload": func() []byte { return encodeFSPayload(dbl) },
			"encodeFSDigestHead+AppendCounterSign": func() []byte {
				head, _, _ := encodeFSDigestHead(out, doubleSize(signer, "p"))
				b, _ := sig.AppendCounterSign(head, signer, peerEnv)
				return b
			},
		} {
			if b := encode(); cap(b) != len(b) {
				t.Errorf("%s at %d B: cap %d, len %d", name, size, cap(b), len(b))
			}
		}
	}
}

// TestGatherEncodingsMatchContiguous: every FS encoder that carries a
// payload by reference stands for the very bytes the contiguous encoder
// wrote before it — the parent encoders are spelled out below with a
// plain writer — and for the same digest form, at body sizes on both sides
// of the 32-byte rule and in a batch of mixed sizes.
func TestGatherEncodingsMatchContiguous(t *testing.T) {
	signer := sig.NewHMACSigner("p#L", []byte("k1"))
	counter := sig.NewHMACSigner("p#F", []byte("k2"))
	peerEnv := digestEnvelope(t, counter)
	bodies := map[string]sm.Output{}
	for _, size := range []int{0, 16, 33, 8 << 10} {
		bodies[fmt.Sprint(size)] = gatherOutput("gc.mcast", nil, bytes.Repeat([]byte{byte(size)}, size))
	}
	bodies["batch"] = gatherBatch(0, 16, 33, 8<<10, 40)
	for name, out := range bodies {
		flatBody, flatRegions := contiguousOf(out)
		// signClient against the parent's signClientPayload.
		ci := ClientInput{Client: "alice/inv", Seq: 3, Kind: out.Kind, Body: out.Payload, gather: out.Gather}
		b, g, err := signClient(signer, ci)
		if err != nil {
			t.Fatal(err)
		}
		want, wantRegions := parentSignClient(t, signer, ClientInput{Client: "alice/inv", Seq: 3, Kind: out.Kind, Body: flatBody}, flatRegions)
		sameEncoding(t, "signClient/"+name, b, g, want, wantRegions)

		// encodeFSDigestHead + AppendCounterSign against the parent's head.
		wire := gatherOutput("gc.deliver", []string{"x", sm.LocalDelivery}, nil)
		wire.Payload, wire.Gather = out.Payload, out.Gather
		head, signed, regions := encodeFSDigestHead(wire, doubleSize(signer, "p"))
		own, err := sig.AppendCounterSign(head, signer, peerEnv)
		if err != nil {
			t.Fatal(err)
		}
		var hg *codec.Gather
		if len(regions) > 0 {
			hg = codec.NewGather(own, regions)
		}
		phead, psigned, pregions := parentDigestHead(sm.Output{Kind: wire.Kind, To: wire.To, Payload: flatBody}, flatRegions)
		pwire, err := sig.AppendCounterSign(phead, signer, peerEnv)
		if err != nil {
			t.Fatal(err)
		}
		sameEncoding(t, "encodeFSDigestHead/"+name, own, hg, pwire, pregions)
		if (*sig.BodyMemo)(nil).FormGather(signed, regions) != (*sig.BodyMemo)(nil).Form(psigned, pregions) {
			t.Errorf("encodeFSDigestHead/%s: the signed part's digest form differs", name)
		}

		// The leader's forward of the client payload: its region is the
		// input as the transport handed it in, not a body to hash.
		fb, fg := fwdPayload{Index: 9, Raw: want}.gather()
		if fg == nil || !bytes.Equal(fg.Flat(), fwdPayload{Index: 9, Raw: want}.marshal()) || fb != nil {
			t.Errorf("fwdPayload/%s: the forward does not reference the input or differs from the contiguous one", name)
		}
	}
}

// gatherOutput is an output carrying payload behind a small header, in
// gather form when the payload is long enough to be a region — as group's
// encoders build one.
func gatherOutput(kind string, to []string, payload []byte) sm.Output {
	w := codec.NewGatherWriter(4 + 3 + 4 + len(payload) - codec.Held(payload))
	w.String("hdr")
	w.Body32(payload)
	b, g := w.Encoding()
	return sm.Output{Kind: kind, To: to, Payload: b, Gather: g}
}

// gatherBatch nests one gatherOutput per size, as a batch of deliveries.
func gatherBatch(sizes ...int) sm.Output {
	w := codec.NewGatherWriter(0)
	w.U8(1)
	w.U32(uint32(len(sizes)))
	for _, n := range sizes {
		item := gatherOutput("gc.deliver", nil, bytes.Repeat([]byte("m"), n))
		w.String(item.Kind)
		w.Nested32(item.Payload, item.Gather)
	}
	b, g := w.Encoding()
	return sm.Output{Kind: "gc.batch", Payload: b, Gather: g}
}

// contiguousOf returns out's body as a plain writer writes it, and its
// body regions.
func contiguousOf(out sm.Output) ([]byte, []codec.Region) {
	w := codec.NewWriter(out.Size())
	if out.Gather != nil {
		w.Nested32(nil, out.Gather)
		return w.Bytes()[4:], shift(w.Bodies(), -4)
	}
	return out.Payload, nil
}

func shift(rs []codec.Region, by int) []codec.Region {
	out := make([]codec.Region, len(rs))
	for i, r := range rs {
		out[i] = codec.Region{Off: r.Off + by, Src: r.Src}
	}
	return out
}

// parentSignClient is signClientPayload as it stood before payloads were
// carried by reference: one plain writer, ci.Body copied in with its body
// regions recorded at their place.
func parentSignClient(t *testing.T, s sig.Signer, ci ClientInput, bodies []codec.Region) ([]byte, []codec.Region) {
	t.Helper()
	n := ci.size()
	w := codec.NewWriter(0)
	w.U8(tagClient)
	w.String(string(s.ID()))
	w.U32(uint32(n))
	w.String(ci.Client)
	w.U64(ci.Seq)
	w.String(ci.Kind)
	w.U32(uint32(len(ci.Body)))
	regions := shift(bodies, w.Len())
	w.Raw(ci.Body)
	form := (*sig.BodyMemo)(nil).Form(w.Bytes(), regions)
	wire, err := sig.AppendSign(w.Bytes(), s, form[:])
	if err != nil {
		t.Fatal(err)
	}
	return codec.AppendRegionTable(wire, regions), regions
}

// parentDigestHead is encodeFSDigestHead as it stood before payloads were
// carried by reference.
func parentDigestHead(out sm.Output, bodies []codec.Region) (head, signed []byte, regions []codec.Region) {
	w := codec.NewWriter(0)
	w.U8(tagFSD)
	w.U32(uint32(sm.OutputSize(out)))
	w.String(out.Kind)
	w.StringSlice(out.To)
	w.U32(uint32(len(out.Payload)))
	regions = shift(bodies, w.Len())
	w.Raw(out.Payload)
	signed = bytes.Clone(w.Bytes())
	w.RegionTable(regions)
	return w.Bytes(), signed, regions
}

// sameEncoding fails unless the encoding b (g nil) or g stands for want,
// whose body regions are wantRegions, with the same digest form.
func sameEncoding(t *testing.T, name string, b []byte, g *codec.Gather, want []byte, wantRegions []codec.Region) {
	t.Helper()
	got, regions := b, []codec.Region(nil)
	if g != nil {
		got, regions = g.Flat(), g.Bodies()
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: the encoding differs from the contiguous one", name)
		return
	}
	if len(regions) != len(wantRegions) {
		t.Errorf("%s: %d regions, the contiguous encoding %d", name, len(regions), len(wantRegions))
		return
	}
	if g != nil && (*sig.BodyMemo)(nil).FormGather(g.Own(), regions) != (*sig.BodyMemo)(nil).Form(want, wantRegions) {
		t.Errorf("%s: the digest form differs from the contiguous one", name)
	}
}

// ownOf returns an encoder's own bytes: b, or g's.
func ownOf(b []byte, g *codec.Gather) []byte {
	if g != nil {
		return g.Own()
	}
	return b
}

// digestEnvelope is a peer's single-signed digest body, for
// AppendCounterSign.
func digestEnvelope(t *testing.T, s sig.Signer) sig.Envelope {
	t.Helper()
	d := sig.Digest([]byte("output"))
	env, err := sig.SignEnvelope(s, OutputBody{Source: "p", Seq: 7, DigestOnly: true, Output: d[:]}.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return env
}
