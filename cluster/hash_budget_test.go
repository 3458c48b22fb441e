package cluster

import (
	"testing"
	"time"

	"fsnewtop/internal/sig"
)

// TestOneHashPerPayloadPerNode fences DESIGN.md "Data path: who owns a
// byte" rule 2 at 4 members and 8 KiB: each application payload is hashed
// at most once per node that handles it. A multicast is handled by its
// client (the signature), the 8 pair halves (the origin pair's verify,
// every other pair's receipt; the outputs that carry the payload on reuse
// those digests) and the 4 invocation-layer receivers: 13 passes, where
// hashing every encoding afresh took 23.6.
func TestOneHashPerPayloadPerNode(t *testing.T) {
	const size = 8 << 10
	c, err := New(
		WithMembers("a", "b", "c", "d"),
		WithDelta(500*time.Millisecond), // a loaded test host must not look like a dead peer
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.JoinAll("g"); err != nil {
		t.Fatal(err)
	}
	names := c.Names()
	round := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			for _, name := range names {
				if err := c.Member(name).Multicast("g", TotalSym, make([]byte, size)); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range names {
				for range names {
					select {
					case <-c.Member(name).Deliveries():
					case <-time.After(30 * time.Second):
						t.Fatalf("%s: no delivery", name)
					}
				}
			}
		}
	}
	// nodes returns every node's payload bytes hashed, by node.
	nodes := func() map[string]uint64 {
		out := make(map[string]uint64)
		for _, name := range names {
			p := c.Member(name).nso.Pair()
			out[name+"#L"] = p.Leader.Stats().BodyBytes
			out[name+"#F"] = p.Follower.Stats().BodyBytes
			out[name+"/inv"] = c.Member(name).nso.Receiver().Stats().BodyBytes
		}
		return out
	}
	round(2) // bring-up and the first rounds are not the steady state
	before, hashed := nodes(), sig.BodyBytes()
	const rounds = 10
	round(rounds)
	after, total := nodes(), sig.BodyBytes()-hashed
	for _, name := range names {
		if c.PairFailed(name) {
			t.Fatalf("%s fail-signalled", name)
		}
	}
	multicasts := uint64(rounds * len(names))
	perMulticast := float64(total) / float64(multicasts*size)
	t.Logf("%.2f payload hashes per multicast", perMulticast)
	for node, n := range after {
		if passes := float64(n-before[node]) / float64(multicasts*size); passes > 1.1 {
			t.Errorf("%s hashed each payload %.2f times", node, passes)
		}
	}
	if perMulticast > 13.5 {
		t.Fatalf("%.2f payload hashes per 8 KiB multicast; the budget is 13.5 (one per node)", perMulticast)
	}
}
