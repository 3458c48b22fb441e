package sig

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestCacheHitMiss: the first verification of a triple is a miss and does
// real work; every subsequent one is a hit.
func TestCacheHitMiss(t *testing.T) {
	a := NewHMACSigner("a", []byte("ka"))
	dir := NewDirectory()
	if err := dir.RegisterSigner(a); err != nil {
		t.Fatal(err)
	}
	data := []byte("broadcast output")
	sigBytes, _ := a.Sign(data)

	for i := 0; i < 5; i++ {
		if err := dir.Verify(a.ID(), data, sigBytes); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
	}
	cs := dir.CacheStats()
	if cs.Misses != 1 || cs.Hits != 4 {
		t.Fatalf("stats = %+v, want 1 miss + 4 hits", cs)
	}
}

// TestCacheDisabled: a zero-capacity cache directory verifies correctly
// and never memoises.
func TestCacheDisabled(t *testing.T) {
	a := NewHMACSigner("a", []byte("ka"))
	dir := NewDirectoryCache(0)
	if err := dir.RegisterSigner(a); err != nil {
		t.Fatal(err)
	}
	data := []byte("x")
	sigBytes, _ := a.Sign(data)
	for i := 0; i < 3; i++ {
		if err := dir.Verify(a.ID(), data, sigBytes); err != nil {
			t.Fatal(err)
		}
	}
	if cs := dir.CacheStats(); cs != (CacheStats{}) {
		t.Fatalf("disabled cache recorded %+v", cs)
	}
}

// TestCacheEviction: a bounded cache evicts least-recently-used entries,
// and an evicted triple still verifies (as a miss).
func TestCacheEviction(t *testing.T) {
	a := NewHMACSigner("a", []byte("ka"))
	dir := NewDirectoryCache(cacheShardCount) // one entry per shard
	if err := dir.RegisterSigner(a); err != nil {
		t.Fatal(err)
	}

	type msg struct {
		data, sig []byte
	}
	msgs := make([]msg, 64)
	for i := range msgs {
		data := []byte(fmt.Sprintf("message %d", i))
		sigBytes, _ := a.Sign(data)
		msgs[i] = msg{data, sigBytes}
		if err := dir.Verify(a.ID(), data, sigBytes); err != nil {
			t.Fatal(err)
		}
	}
	if cs := dir.CacheStats(); cs.Evictions == 0 {
		t.Fatalf("64 inserts into a %d-entry cache evicted nothing: %+v", cacheShardCount, cs)
	}

	// Every message still verifies, evicted or not.
	for i, m := range msgs {
		if err := dir.Verify(a.ID(), m.data, m.sig); err != nil {
			t.Fatalf("post-eviction verify %d: %v", i, err)
		}
	}
}

// TestBadSignatureNeverCached: failed verifications are not memoised as
// successes, in any order of good and bad attempts.
func TestBadSignatureNeverCached(t *testing.T) {
	a := NewHMACSigner("a", []byte("ka"))
	dir := NewDirectory()
	if err := dir.RegisterSigner(a); err != nil {
		t.Fatal(err)
	}
	data := []byte("content")
	good, _ := a.Sign(data)
	bad := append([]byte(nil), good...)
	bad[0] ^= 1

	// Bad first: must fail every time, and must not poison later goods.
	for i := 0; i < 3; i++ {
		if err := dir.Verify(a.ID(), data, bad); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("bad signature attempt %d: %v", i, err)
		}
	}
	if err := dir.Verify(a.ID(), data, good); err != nil {
		t.Fatal(err)
	}
	// Good is now cached for this digest; the bad signature over the same
	// digest must still fail (the memo compares signature bytes).
	if err := dir.Verify(a.ID(), data, bad); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("bad signature after cached good: %v", err)
	}
	// And the cached good still hits.
	if err := dir.Verify(a.ID(), data, good); err != nil {
		t.Fatal(err)
	}
}

// TestCacheInvalidatedByReRegistration: a signature proven under old key
// material must not stay valid after the identity is re-registered (key
// rotation bumps the directory epoch).
func TestCacheInvalidatedByReRegistration(t *testing.T) {
	dir := NewDirectory()
	oldSigner := NewHMACSigner("rotating", []byte("old-key"))
	if err := dir.RegisterSigner(oldSigner); err != nil {
		t.Fatal(err)
	}
	data := []byte("signed under the old key")
	oldSig, _ := oldSigner.Sign(data)
	if err := dir.Verify("rotating", data, oldSig); err != nil {
		t.Fatal(err)
	}
	if err := dir.Verify("rotating", data, oldSig); err != nil {
		t.Fatal(err) // cached
	}

	newSigner := NewHMACSigner("rotating", []byte("new-key"))
	if err := dir.RegisterSigner(newSigner); err != nil {
		t.Fatalf("same-scheme re-registration should be allowed: %v", err)
	}
	if err := dir.Verify("rotating", data, oldSig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("old-key signature verified after rotation: %v", err)
	}
	newSig, _ := newSigner.Sign(data)
	if err := dir.Verify("rotating", data, newSig); err != nil {
		t.Fatal(err)
	}
}

// TestRegistrationKeepsOtherEntriesWarm: epochs are per identity, so
// registering a new member (the common runtime registration) must not
// flush the memo entries other identities have already earned.
func TestRegistrationKeepsOtherEntriesWarm(t *testing.T) {
	dir := NewDirectory()
	a := NewHMACSigner("a", []byte("ka"))
	if err := dir.RegisterSigner(a); err != nil {
		t.Fatal(err)
	}
	data := []byte("steady traffic")
	sigBytes, _ := a.Sign(data)
	if err := dir.Verify("a", data, sigBytes); err != nil {
		t.Fatal(err) // primes the memo: 1 miss
	}
	for i := 0; i < 4; i++ {
		if err := dir.RegisterHMAC(ID(fmt.Sprintf("new-%d", i)), []byte("k")); err != nil {
			t.Fatal(err)
		}
		if err := dir.Verify("a", data, sigBytes); err != nil {
			t.Fatal(err)
		}
	}
	cs := dir.CacheStats()
	if cs.Misses != 1 || cs.Hits != 4 {
		t.Fatalf("stats = %+v, want the 4 post-registration verifies to hit", cs)
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
					_ = dir.CacheStats()
				}
			}
		}()
	}
	wg.Wait()
}

// TestCachedVerifierIsolation: per-node CachedVerifiers share material
// but not memoisation — one node's verification must not warm another's
// — and both observe key rotation through the shared directory.
func TestCachedVerifierIsolation(t *testing.T) {
	dir := NewDirectoryCache(0)
	a := NewHMACSigner("a", []byte("ka"))
	if err := dir.RegisterSigner(a); err != nil {
		t.Fatal(err)
	}
	node1 := NewCachedVerifier(dir, DefaultCacheEntries)
	node2 := NewCachedVerifier(dir, DefaultCacheEntries)
	data := []byte("broadcast")
	sigBytes, _ := a.Sign(data)

	for i := 0; i < 2; i++ {
		if err := node1.Verify("a", data, sigBytes); err != nil {
			t.Fatal(err)
		}
	}
	if cs := node1.CacheStats(); cs.Misses != 1 || cs.Hits != 1 {
		t.Fatalf("node1 stats = %+v, want 1 miss + 1 hit", cs)
	}
	// node2 must do its own real verification: no cross-node sharing.
	if err := node2.Verify("a", data, sigBytes); err != nil {
		t.Fatal(err)
	}
	if cs := node2.CacheStats(); cs.Misses != 1 || cs.Hits != 0 {
		t.Fatalf("node2 stats = %+v, want a real (miss) verification", cs)
	}
	// The shared directory itself memoised nothing.
	if cs := dir.CacheStats(); cs != (CacheStats{}) {
		t.Fatalf("memo-disabled directory recorded %+v", cs)
	}

	// capacity <= 0 disables the verifier's memo too, same convention as
	// NewDirectoryCache; it still counts, and every check is a real one.
	plain := NewCachedVerifier(dir, 0)
	for i := 0; i < 2; i++ {
		if err := plain.Verify("a", data, sigBytes); err != nil {
			t.Fatal(err)
		}
	}
	if err := plain.Verify("a", data, []byte("bad")); err == nil {
		t.Fatal("memo-disabled verifier accepted a bad signature")
	}
	if cs := plain.CacheStats(); cs != (CacheStats{Misses: 3}) {
		t.Fatalf("memo-disabled verifier recorded %+v, want 3 real checks", cs)
	}

	// Key rotation through the shared directory invalidates both nodes'
	// entries.
	if err := dir.RegisterSigner(NewHMACSigner("a", []byte("ka2"))); err != nil {
		t.Fatal(err)
	}
	if err := node1.Verify("a", data, sigBytes); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("node1 accepted an old-key signature after rotation: %v", err)
	}
	if err := node2.Verify("a", data, sigBytes); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("node2 accepted an old-key signature after rotation: %v", err)
	}
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
// built around: signing into capacity, cold pooled HMAC verification, and
// memo-hit verification all run allocation-free.
func TestZeroAllocFences(t *testing.T) {
	a := NewHMACSigner("a", []byte("ka"))
	b := NewHMACSigner("b", []byte("kb"))
	body := make([]byte, 1024)

	cold := NewDirectoryCache(0)
	warm := NewDirectory()
	for _, d := range []*Directory{cold, warm} {
		if err := d.RegisterSigner(a); err != nil {
			t.Fatal(err)
		}
		if err := d.RegisterSigner(b); err != nil {
			t.Fatal(err)
		}
	}
	sigBytes, _ := a.Sign(body)
	digest := Digest(body)
	buf := make([]byte, 0, 64)

	if allocs := testing.AllocsPerRun(200, func() {
		buf, _ = a.AppendSign(buf[:0], body)
	}); allocs != 0 {
		t.Errorf("AppendSign: %v allocs/op, want 0", allocs)
	}

	if allocs := testing.AllocsPerRun(200, func() {
		if err := cold.Verify(a.ID(), body, sigBytes); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("cold HMAC Verify: %v allocs/op, want 0", allocs)
	}

	if err := warm.VerifyDigest(a.ID(), digest, body, sigBytes); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := warm.VerifyDigest(a.ID(), digest, body, sigBytes); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("cache-hit VerifyDigest: %v allocs/op, want 0", allocs)
	}

	env, _ := SignEnvelope(a, body)
	dbl, _ := CounterSign(b, env)
	if err := dbl.Verify(warm); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := dbl.Verify(warm); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("cached Double.Verify: %v allocs/op, want 0", allocs)
	}
}
