package sig

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
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

// TestBadSignatureNeverCached: a bad signature never verifies, on any
// retry, before or after the good one over the same bytes has, on the
// directory and on a node verifier. (The name predates the deletion of
// the verification memo; every call is now a full check.)
func TestBadSignatureNeverCached(t *testing.T) {
	a, _, dir := testSigners(t)
	data := []byte("ordered message 42")
	sigBytes, err := a.Sign(data)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), sigBytes...)
	bad[0] ^= 1
	for _, v := range []Verifier{dir, NewNodeVerifier(dir)} {
		for i := 0; i < 3; i++ {
			if err := v.Verify(a.ID(), data, bad); !errors.Is(err, ErrBadSignature) {
				t.Fatalf("%T: bad signature attempt %d: %v", v, i, err)
			}
			if err := v.Verify(a.ID(), data, sigBytes); err != nil {
				t.Fatalf("%T: valid signature rejected after a bad one: %v", v, err)
			}
		}
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

// rotationSchemes builds a signer for the identity "rotating" under each
// scheme; the HMAC one keys on its argument, the RSA one draws a fresh key.
var rotationSchemes = []struct {
	name      string
	newSigner func(key string) (Signer, error)
}{
	{"hmac", func(key string) (Signer, error) { return NewHMACSigner("rotating", []byte(key)), nil }},
	{"rsa", func(string) (Signer, error) { return NewRSASigner("rotating", 1024, nil) }},
}

// rotate registers an old signer for "rotating" and a bystander "other",
// checks the old key verifies on the directory and on a node verifier,
// then re-registers "rotating" under the new key. It returns both
// verifiers, the signed bytes and the old, new and bystander signatures.
func rotate(t *testing.T, newSigner func(string) (Signer, error)) (verifiers []Verifier, data, oldSig, newSig, otherSig []byte) {
	t.Helper()
	oldSigner, err := newSigner("old-key")
	if err != nil {
		t.Fatal(err)
	}
	rotated, err := newSigner("new-key")
	if err != nil {
		t.Fatal(err)
	}
	other := NewHMACSigner("other", []byte("other-key"))
	dir := NewDirectory()
	for _, s := range []Signer{oldSigner, other} {
		if err := dir.RegisterSigner(s); err != nil {
			t.Fatal(err)
		}
	}
	verifiers = []Verifier{dir, NewNodeVerifier(dir)}
	data = []byte("signed across a rotation")
	oldSig, _ = oldSigner.Sign(data)
	newSig, _ = rotated.Sign(data)
	otherSig, _ = other.Sign(data)
	for _, v := range verifiers {
		if err := v.Verify("rotating", data, oldSig); err != nil {
			t.Fatal(err)
		}
		if err := v.Verify("other", data, otherSig); err != nil {
			t.Fatal(err)
		}
	}
	if err := dir.RegisterSigner(rotated); err != nil {
		t.Fatalf("same-scheme re-registration should be allowed: %v", err)
	}
	return verifiers, data, oldSig, newSig, otherSig
}

// TestCacheInvalidatedByReRegistration: re-registering an identity under
// the same scheme replaces its material at once, for the directory and
// for every node verifier over it: the old key's signature is refused and
// the new one's verifies. (The name predates the deletion of the
// verification memo; this is now a key-rotation test for both schemes.)
func TestCacheInvalidatedByReRegistration(t *testing.T) {
	for _, scheme := range rotationSchemes {
		t.Run(scheme.name, func(t *testing.T) {
			verifiers, data, oldSig, newSig, _ := rotate(t, scheme.newSigner)
			for _, v := range verifiers {
				if err := v.Verify("rotating", data, oldSig); !errors.Is(err, ErrBadSignature) {
					t.Fatalf("%T accepted the old key's signature after rotation: %v", v, err)
				}
				if err := v.Verify("rotating", data, newSig); err != nil {
					t.Fatalf("%T refused the new key's signature: %v", v, err)
				}
			}
		})
	}
}

// TestRegistrationKeepsOtherEntriesWarm: re-registering one identity
// leaves every other identity verifying as before, on the directory and
// on a node verifier.
func TestRegistrationKeepsOtherEntriesWarm(t *testing.T) {
	for _, scheme := range rotationSchemes {
		t.Run(scheme.name, func(t *testing.T) {
			verifiers, data, _, _, otherSig := rotate(t, scheme.newSigner)
			for _, v := range verifiers {
				if err := v.Verify("other", data, otherSig); err != nil {
					t.Fatalf("%T: rotation disturbed another identity: %v", v, err)
				}
			}
		})
	}
}

// TestNodeVerifierCounts: node verifiers over one directory share its
// material but count apart, and every call is a check — a repeat, and a
// bad signature, included.
func TestNodeVerifierCounts(t *testing.T) {
	a, _, dir := testSigners(t)
	node1, node2 := NewNodeVerifier(dir), NewNodeVerifier(dir)
	data := []byte("broadcast")
	sigBytes, _ := a.Sign(data)
	for i := 0; i < 2; i++ {
		if err := node1.Verify(a.ID(), data, sigBytes); err != nil {
			t.Fatal(err)
		}
	}
	if err := node1.Verify(a.ID(), data, []byte("bad")); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("node verifier accepted a bad signature: %v", err)
	}
	if err := node2.Verify(a.ID(), data, sigBytes); err != nil {
		t.Fatal(err)
	}
	if c1, c2 := node1.Checks(), node2.Checks(); c1 != 3 || c2 != 1 {
		t.Fatalf("checks = %d and %d, want 3 and 1", c1, c2)
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

// TestSchemeConflict: registering the same identity under both schemes is
// an explicit error, in either order; the original material stays active.
func TestSchemeConflict(t *testing.T) {
	rsaSigner, err := NewRSASigner("both", 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	hmacSigner := NewHMACSigner("both", []byte("k"))

	dir := NewDirectory()
	if err := dir.RegisterSigner(rsaSigner); err != nil {
		t.Fatal(err)
	}
	if err := dir.RegisterSigner(hmacSigner); !errors.Is(err, ErrSchemeConflict) {
		t.Fatalf("HMAC over RSA: want ErrSchemeConflict, got %v", err)
	}
	data := []byte("still RSA")
	rs, _ := rsaSigner.Sign(data)
	if err := dir.Verify("both", data, rs); err != nil {
		t.Fatalf("RSA material lost after rejected registration: %v", err)
	}

	dir2 := NewDirectory()
	if err := dir2.RegisterSigner(hmacSigner); err != nil {
		t.Fatal(err)
	}
	if err := dir2.RegisterSigner(rsaSigner); !errors.Is(err, ErrSchemeConflict) {
		t.Fatalf("RSA over HMAC: want ErrSchemeConflict, got %v", err)
	}
}

// TestConcurrentRegistrationAndVerify drives registrations, verifies of a
// stable identity, and directory reads concurrently. Run with -race: the
// COW snapshot is exactly the code race detection exists for.
func TestConcurrentRegistrationAndVerify(t *testing.T) {
	dir := NewDirectory()
	stable := NewHMACSigner("stable", []byte("sk"))
	if err := dir.RegisterSigner(stable); err != nil {
		t.Fatal(err)
	}
	data := []byte("steady traffic")
	sigBytes, _ := stable.Sign(data)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch w % 3 {
				case 0: // register fresh identities
					id := ID(fmt.Sprintf("dyn-%d-%d", w, i))
					if err := dir.RegisterHMAC(id, []byte(id)); err != nil {
						t.Error(err)
						return
					}
				case 1: // verify the stable identity throughout
					if err := dir.Verify("stable", data, sigBytes); err != nil {
						t.Error(err)
						return
					}
				case 2: // read the registry
					_ = dir.IDs()
				}
			}
		}()
	}
	wg.Wait()
}

// TestHMACMatchesReference: the pooled precomputed-pad implementation must
// produce byte-identical MACs to crypto/hmac for all key-length regimes
// (short, block-sized, and longer-than-block keys get different
// normalisation).
func TestHMACMatchesReference(t *testing.T) {
	keys := [][]byte{
		{},
		[]byte("short"),
		make([]byte, sha256.BlockSize),
		make([]byte, sha256.BlockSize+37),
	}
	for i := range keys[2] {
		keys[2][i] = byte(i)
	}
	for i := range keys[3] {
		keys[3][i] = byte(255 - i)
	}
	bodies := [][]byte{nil, []byte("x"), make([]byte, 1024)}
	for _, key := range keys {
		tmpl := newHMACTemplate(key)
		for _, body := range bodies {
			ref := hmac.New(sha256.New, key)
			ref.Write(body)
			want := ref.Sum(nil)
			got := tmpl.appendMAC(nil, body)
			if !hmac.Equal(got, want) {
				t.Fatalf("key len %d body len %d: template MAC diverges from crypto/hmac", len(key), len(body))
			}
			if !tmpl.verify(body, want) {
				t.Fatalf("key len %d body len %d: template rejects reference MAC", len(key), len(body))
			}
		}
	}
}

// TestAppendSign: the append path signs into caller storage and matches
// Sign.
func TestAppendSign(t *testing.T) {
	s := NewHMACSigner("a", []byte("k"))
	data := []byte("payload")
	want, _ := s.Sign(data)
	buf := make([]byte, 0, sha256.Size)
	got, err := s.AppendSign(buf, data)
	if err != nil {
		t.Fatal(err)
	}
	if !hmac.Equal(got, want) {
		t.Fatal("AppendSign diverges from Sign")
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("AppendSign reallocated despite sufficient capacity")
	}
}

// TestWireEncodeFence asserts the cached-wire-form promise: at most one
// wire encoding per counter-sign, and none per verification of a signed
// or decoded double.
func TestWireEncodeFence(t *testing.T) {
	a := NewHMACSigner("a", []byte("ka"))
	b := NewHMACSigner("b", []byte("kb"))
	dir := NewDirectory()
	if err := dir.RegisterSigner(a); err != nil {
		t.Fatal(err)
	}
	if err := dir.RegisterSigner(b); err != nil {
		t.Fatal(err)
	}

	env, err := SignEnvelope(a, []byte("an FS output body"))
	if err != nil {
		t.Fatal(err)
	}

	base := WireEncodes()
	dbl, err := CounterSign(b, env)
	if err != nil {
		t.Fatal(err)
	}
	if d := WireEncodes() - base; d > 1 {
		t.Fatalf("counter-sign performed %d wire encodings, want <= 1", d)
	}

	base = WireEncodes()
	for i := 0; i < 3; i++ {
		if err := dbl.Verify(dir); err != nil {
			t.Fatal(err)
		}
	}
	if d := WireEncodes() - base; d != 0 {
		t.Fatalf("verifying a counter-signed double performed %d wire encodings, want 0", d)
	}

	// A decoded double must also verify without re-encoding: its wire
	// forms are views of the received bytes.
	wire := dbl.Marshal()
	got, err := UnmarshalDouble(wire)
	if err != nil {
		t.Fatal(err)
	}
	base = WireEncodes()
	if err := got.Verify(dir); err != nil {
		t.Fatal(err)
	}
	if got.Marshal(); WireEncodes() != base {
		t.Fatal("decoded double re-encoded on verify/marshal")
	}
}

// TestZeroAllocFences pins the allocation behaviour the crypto plane is
// built around: signing into capacity, pooled HMAC verification and
// double-signature verification all run allocation-free.
func TestZeroAllocFences(t *testing.T) {
	a := NewHMACSigner("a", []byte("ka"))
	b := NewHMACSigner("b", []byte("kb"))
	body := make([]byte, 1024)

	dir := NewDirectory()
	if err := dir.RegisterSigner(a); err != nil {
		t.Fatal(err)
	}
	if err := dir.RegisterSigner(b); err != nil {
		t.Fatal(err)
	}
	sigBytes, _ := a.Sign(body)
	buf := make([]byte, 0, 64)

	if allocs := testing.AllocsPerRun(200, func() {
		buf, _ = a.AppendSign(buf[:0], body)
	}); allocs != 0 {
		t.Errorf("AppendSign: %v allocs/op, want 0", allocs)
	}

	if allocs := testing.AllocsPerRun(200, func() {
		if err := dir.Verify(a.ID(), body, sigBytes); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("HMAC Verify: %v allocs/op, want 0", allocs)
	}

	env, _ := SignEnvelope(a, body)
	dbl, _ := CounterSign(b, env)
	if err := dbl.Verify(dir); err != nil {
		t.Fatal(err)
	}
	if raceDetector {
		// The race runtime drops pooled HMAC runners at random, and two
		// checks per op lose one often enough to count.
		return
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := dbl.Verify(dir); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Double.Verify: %v allocs/op, want 0", allocs)
	}
}
