package sig

import (
	"errors"
	"testing"
	"testing/quick"
)

// testSigners returns an HMAC signer pair plus a directory knowing both.
func testSigners(t *testing.T) (*HMACSigner, *HMACSigner, *Directory) {
	t.Helper()
	a := NewHMACSigner("compare-A", []byte("key-a"))
	b := NewHMACSigner("compare-B", []byte("key-b"))
	dir := NewDirectory()
	if err := dir.RegisterSigner(a); err != nil {
		t.Fatal(err)
	}
	if err := dir.RegisterSigner(b); err != nil {
		t.Fatal(err)
	}
	return a, b, dir
}

func TestHMACSignVerify(t *testing.T) {
	a, _, dir := testSigners(t)
	data := []byte("ordered message 42")
	sigBytes, err := a.Sign(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Verify(a.ID(), data, sigBytes); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
}

func TestHMACRejectsTamperedData(t *testing.T) {
	a, _, dir := testSigners(t)
	data := []byte("payload")
	sigBytes, _ := a.Sign(data)
	data[0] ^= 0xFF
	if err := dir.Verify(a.ID(), data, sigBytes); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered data verified: %v", err)
	}
}

func TestHMACRejectsWrongIdentity(t *testing.T) {
	a, b, dir := testSigners(t)
	data := []byte("payload")
	sigBytes, _ := a.Sign(data)
	if err := dir.Verify(b.ID(), data, sigBytes); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("cross-identity signature verified: %v", err)
	}
}

func TestUnknownSigner(t *testing.T) {
	_, _, dir := testSigners(t)
	if err := dir.Verify("nobody", []byte("x"), []byte("y")); !errors.Is(err, ErrUnknownSigner) {
		t.Fatalf("want ErrUnknownSigner, got %v", err)
	}
}

func TestRSASignVerify(t *testing.T) {
	s, err := NewRSASigner("rsa-node", 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := NewDirectory()
	if err := dir.RegisterSigner(s); err != nil {
		t.Fatal(err)
	}
	data := []byte("output of GC state machine")
	sigBytes, err := s.Sign(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Verify(s.ID(), data, sigBytes); err != nil {
		t.Fatalf("valid RSA signature rejected: %v", err)
	}
	sigBytes[0] ^= 0x01
	if err := dir.Verify(s.ID(), data, sigBytes); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("corrupt RSA signature verified: %v", err)
	}
}

func TestDirectoryIDsSorted(t *testing.T) {
	_, _, dir := testSigners(t)
	ids := dir.IDs()
	if len(ids) != 2 || ids[0] != "compare-A" || ids[1] != "compare-B" {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestRegisterSignerUnknownType(t *testing.T) {
	dir := NewDirectory()
	if err := dir.RegisterSigner(fakeSigner{}); err == nil {
		t.Fatal("expected error for unknown signer type")
	}
}

type fakeSigner struct{}

func (fakeSigner) ID() ID                      { return "fake" }
func (fakeSigner) Sign([]byte) ([]byte, error) { return nil, nil }

func TestEnvelopeRoundTrip(t *testing.T) {
	a, _, dir := testSigners(t)
	env, err := SignEnvelope(a, []byte("body"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalEnvelope(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(dir); err != nil {
		t.Fatalf("round-tripped envelope failed verification: %v", err)
	}
	if string(got.Body) != "body" || got.Signer != a.ID() {
		t.Fatalf("round trip mangled envelope: %+v", got)
	}
}

func TestDoubleSignVerify(t *testing.T) {
	a, b, dir := testSigners(t)
	env, _ := SignEnvelope(a, []byte("matched output"))
	dbl, err := CounterSign(b, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := dbl.Verify(dir); err != nil {
		t.Fatalf("valid double signature rejected: %v", err)
	}
	if !dbl.SignedBy(a.ID(), b.ID()) || !dbl.SignedBy(b.ID(), a.ID()) {
		t.Fatal("SignedBy should accept the pair in either order")
	}
	if dbl.SignedBy(a.ID(), "other") {
		t.Fatal("SignedBy accepted a wrong pair")
	}
}

func TestDoubleRejectsSingleIdentity(t *testing.T) {
	a, _, dir := testSigners(t)
	env, _ := SignEnvelope(a, []byte("x"))
	dbl, err := CounterSign(a, env) // same identity twice
	if err != nil {
		t.Fatal(err)
	}
	if err := dbl.Verify(dir); !errors.Is(err, ErrSamePair) {
		t.Fatalf("want ErrSamePair, got %v", err)
	}
}

func TestDoubleRejectsTamperedBody(t *testing.T) {
	a, b, dir := testSigners(t)
	env, _ := SignEnvelope(a, []byte("original"))
	dbl, _ := CounterSign(b, env)
	dbl.Body = []byte("tampered")
	if err := dbl.Verify(dir); err == nil {
		t.Fatal("tampered double-signed body verified")
	}
}

func TestDoubleRejectsTamperedInnerSig(t *testing.T) {
	a, b, dir := testSigners(t)
	env, _ := SignEnvelope(a, []byte("original"))
	dbl, _ := CounterSign(b, env)
	dbl.Sig[0] ^= 1
	if err := dbl.Verify(dir); err == nil {
		t.Fatal("double envelope with tampered inner signature verified")
	}
}

func TestDoubleRoundTrip(t *testing.T) {
	a, b, dir := testSigners(t)
	env, _ := SignEnvelope(a, []byte("round trip"))
	dbl, _ := CounterSign(b, env)
	got, err := UnmarshalDouble(dbl.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(dir); err != nil {
		t.Fatalf("round-tripped double envelope failed verification: %v", err)
	}
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	a, b, _ := testSigners(t)
	env, _ := SignEnvelope(a, []byte("msg"))
	dbl, _ := CounterSign(b, env)
	raw := dbl.Marshal()
	for _, cut := range []int{0, 1, len(raw) / 2, len(raw) - 1} {
		if _, err := UnmarshalDouble(raw[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	if _, err := UnmarshalEnvelope(env.Marshal()[:3]); err == nil {
		t.Fatal("truncated envelope decoded successfully")
	}
}

func TestDigestDiffersOnContent(t *testing.T) {
	if Digest([]byte("a")) == Digest([]byte("b")) {
		t.Fatal("digest collision on trivial inputs")
	}
	if Digest([]byte("same")) != Digest([]byte("same")) {
		t.Fatal("digest not deterministic")
	}
}

// Property: every signed body verifies, and any single-bit body flip fails.
func TestQuickHMACIntegrity(t *testing.T) {
	a, _, dir := testSigners(t)
	f := func(body []byte, flip uint16) bool {
		sigBytes, err := a.Sign(body)
		if err != nil {
			return false
		}
		if dir.Verify(a.ID(), body, sigBytes) != nil {
			return false
		}
		if len(body) == 0 {
			return true
		}
		mutated := make([]byte, len(body))
		copy(mutated, body)
		mutated[int(flip)%len(body)] ^= 0x80
		return dir.Verify(a.ID(), mutated, sigBytes) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: envelope marshal/unmarshal is the identity on arbitrary bodies.
func TestQuickEnvelopeRoundTrip(t *testing.T) {
	a, b, _ := testSigners(t)
	f := func(body []byte) bool {
		env, err := SignEnvelope(a, body)
		if err != nil {
			return false
		}
		dbl, err := CounterSign(b, env)
		if err != nil {
			return false
		}
		got, err := UnmarshalDouble(dbl.Marshal())
		if err != nil {
			return false
		}
		return string(got.Body) == string(body) &&
			got.Signer == a.ID() && got.Second == b.ID()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWireSizesAreExact fences the envelope encoders' writer hints: the
// wire form is built in a writer of exactly wireSize (dblWireSize) bytes,
// so a body is copied into it once and the buffer never grows. The result
// is clipped, which would hide a wrong hint from a cap == len check, so the
// computed size is compared with what was written.
func TestWireSizesAreExact(t *testing.T) {
	a, b, _ := testSigners(t)
	for _, size := range []int{16, 8192} {
		env, err := SignEnvelope(a, make([]byte, size))
		if err != nil {
			t.Fatal(err)
		}
		if got := len(env.Marshal()); got != env.wireSize() {
			t.Errorf("envelope of a %d B body: wire form %d B, hint %d", size, got, env.wireSize())
		}
		dbl, err := CounterSign(b, env)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(dbl.Marshal()); got != dbl.dblWireSize() {
			t.Errorf("double of a %d B body: wire form %d B, hint %d", size, got, dbl.dblWireSize())
		}
	}
}
