package cluster

import (
	"testing"
	"time"

	"fsnewtop/internal/sig"
	"fsnewtop/transport/tcpnet"
)

// TestOneHashPerPayloadPerNode fences DESIGN.md "Data path: who owns a
// byte" rule 2 at 4 members and 8 KiB: each application payload is hashed
// at most once per node that handles it. A multicast is handled by its
// client (the signature), the 8 pair halves (the origin pair's verify,
// every other pair's receipt; the outputs that carry the payload on reuse
// those digests) and the 4 invocation-layer receivers: 13 passes, where
// hashing every encoding afresh took 23.6. Over tcp two copies of one
// input arrive on two links at once; the copy behind the one being
// decoded is parked, not decoded (core's reservations), and the follower
// reads a forward that races a direct copy from that copy's bytes, so tcp
// reads exactly 13: every node hashes every payload once, no more. netsim
// keeps the headroom it had.
func TestOneHashPerPayloadPerNode(t *testing.T) {
	t.Run("netsim", func(t *testing.T) { oneHashPerPayloadPerNode(t, false) })
	t.Run("tcpnet", func(t *testing.T) {
		tr, err := tcpnet.New(tcpnet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		oneHashPerPayloadPerNode(t, true, WithTransport(tr))
	})
}

// oneHashPerPayloadPerNode runs the fence on a cluster built with opts:
// exactly one pass per payload per node when exact, else at most 1.1 and
// 13.5 passes in all.
func oneHashPerPayloadPerNode(t *testing.T, exact bool, opts ...Option) {
	const size = 8 << 10
	c, err := New(append([]Option{
		WithMembers("a", "b", "c", "d"),
		WithDelta(500 * time.Millisecond), // a loaded test host must not look like a dead peer
	}, opts...)...)
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
	nodeBudget, budget := 1.1, 13.5
	if exact {
		nodeBudget, budget = 1, 13
	}
	for node, n := range after {
		if passes := float64(n-before[node]) / float64(multicasts*size); passes > nodeBudget {
			t.Errorf("%s hashed each payload %.3f times; the budget is %.1f", node, passes, nodeBudget)
		}
	}
	if perMulticast > budget {
		t.Fatalf("%.3f payload hashes per 8 KiB multicast; the budget is %.1f (one per node)", perMulticast, budget)
	}
}
