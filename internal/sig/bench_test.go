package sig

import (
	"crypto/sha256"
	"testing"
)

// benchBody is sized like a typical FS output envelope body: large enough
// that hashing dominates HMAC cost, small enough to stay in cache.
const benchBodySize = 1024

// BenchmarkSignHMAC measures the pooled precomputed-pad signing path via
// AppendSign. The fence: 0 allocs/op.
func BenchmarkSignHMAC(b *testing.B) {
	s := NewHMACSigner("a", []byte("ka"))
	body := make([]byte, benchBodySize)
	buf := make([]byte, 0, sha256.Size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = s.AppendSign(buf[:0], body)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyHMAC measures one HMAC verification. The fence: 0
// allocs/op.
func BenchmarkVerifyHMAC(b *testing.B) {
	s := NewHMACSigner("a", []byte("ka"))
	dir := NewDirectory()
	if err := dir.RegisterSigner(s); err != nil {
		b.Fatal(err)
	}
	body := make([]byte, benchBodySize)
	sigBytes, _ := s.Sign(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dir.Verify("a", body, sigBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyRSA measures one MD5-with-RSA verification (the paper's
// scheme), the cost every receiver of a double-signed output pays twice.
func BenchmarkVerifyRSA(b *testing.B) {
	s, err := NewRSASigner("r", RSAKeySize, nil)
	if err != nil {
		b.Fatal(err)
	}
	dir := NewDirectory()
	if err := dir.RegisterSigner(s); err != nil {
		b.Fatal(err)
	}
	body := make([]byte, benchBodySize)
	sigBytes, err := s.Sign(body)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dir.Verify("r", body, sigBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoubleEnvelopeHMAC is the whole output-path round for one
// matched output at one receiver: sign, counter-sign, verify both.
func BenchmarkDoubleEnvelopeHMAC(b *testing.B) {
	a := NewHMACSigner("a", []byte("ka"))
	c := NewHMACSigner("b", []byte("kb"))
	dir := NewDirectory()
	_ = dir.RegisterSigner(a)
	_ = dir.RegisterSigner(c)
	body := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env, err := SignEnvelope(a, body)
		if err != nil {
			b.Fatal(err)
		}
		dbl, err := CounterSign(c, env)
		if err != nil {
			b.Fatal(err)
		}
		if err := dbl.Verify(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoubleVerifyFanIn replays the receiver side of a broadcast:
// one decoded double-signed output verified n times against one
// directory, as the n receivers of an in-process deployment do — two
// signature checks each.
func BenchmarkDoubleVerifyFanIn(b *testing.B) {
	a := NewHMACSigner("a", []byte("ka"))
	c := NewHMACSigner("b", []byte("kb"))
	dir := NewDirectory()
	_ = dir.RegisterSigner(a)
	_ = dir.RegisterSigner(c)
	body := make([]byte, 256)
	env, err := SignEnvelope(a, body)
	if err != nil {
		b.Fatal(err)
	}
	dbl, err := CounterSign(c, env)
	if err != nil {
		b.Fatal(err)
	}
	got, err := UnmarshalDouble(dbl.Marshal())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := got.Verify(dir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDigest(b *testing.B) {
	body := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Digest(body)
	}
}
