package failsignal

import (
	"bytes"
	"testing"

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
// (TestWireSizesAreExact).
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
		for name, encode := range map[string]func() []byte{
			"sm.MarshalOutput":      func() []byte { return sm.MarshalOutput(sm.Output{Kind: "gc.data", To: to, Payload: v}) },
			"sm.MarshalInput":       func() []byte { return sm.MarshalInput(sm.Input{Kind: "gc.data", From: "alice", Payload: v}) },
			"ClientInput":           ClientInput{Client: "alice/inv", Seq: 1 << 40, Kind: "gc.mcast", Body: v}.Marshal,
			"OutputBody":            OutputBody{Source: "alice", Seq: 7, DigestOnly: true, Output: v}.Marshal,
			"fwdPayload":            fwdPayload{Index: 7, Raw: v}.marshal,
			"encodeClientPayload":   func() []byte { return encodeClientPayload(env) },
			"encodeFSPayload":       func() []byte { return encodeFSPayload(dbl) },
			"encodeFSDigestPayload": func() []byte { return encodeFSDigestPayload(dbl, v) },
		} {
			if b := encode(); cap(b) != len(b) {
				t.Errorf("%s at %d B: cap %d, len %d", name, size, cap(b), len(b))
			}
		}
	}
}
