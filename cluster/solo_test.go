package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/transport"
	"fsnewtop/transport/netsim"
	"fsnewtop/transport/tcpnet"
)

// soloHarness spawns one solo member per name, each on its OWN tcpnet
// transport with its OWN address book — the same isolation two OS
// processes would have — and cross-seeds every book with the peers'
// endpoints, exactly as the deploy plane's manifest distribution does.
// opts select the stack; every member is a fail-signal member by default.
type soloHarness struct {
	t        *testing.T
	names    []string
	trs      map[string]*tcpnet.Transport
	clusters map[string]*Cluster
}

func newSoloHarness(t *testing.T, names []string, opts ...Option) *soloHarness {
	t.Helper()
	h := &soloHarness{
		t:        t,
		names:    names,
		trs:      make(map[string]*tcpnet.Transport),
		clusters: make(map[string]*Cluster),
	}
	for _, name := range names {
		tr, err := tcpnet.New(tcpnet.Config{})
		if err != nil {
			t.Fatalf("tcpnet for %s: %v", name, err)
		}
		h.trs[name] = tr
	}
	// Manifest distribution: every book learns every remote member's
	// addresses, through the same LoadPeers path worker processes use.
	var entries []tcpnet.PeerEntry
	for _, name := range names {
		for _, a := range MemberAddrs(name) {
			entries = append(entries, tcpnet.PeerEntry{Addr: string(a), Endpoint: h.trs[name].Endpoint()})
		}
	}
	manifest, err := tcpnet.MarshalPeers(entries)
	if err != nil {
		t.Fatalf("marshal manifest: %v", err)
	}
	for _, name := range names {
		if _, err := h.trs[name].Book().LoadPeers(strings.NewReader(string(manifest))); err != nil {
			t.Fatalf("seeding %s book: %v", name, err)
		}
	}
	for _, name := range names {
		peers := make([]string, 0, len(names)-1)
		for _, p := range names {
			if p != name {
				peers = append(peers, p)
			}
		}
		c, err := NewSolo(name, peers, append([]Option{
			WithTransport(h.trs[name]),
			WithDelta(2 * time.Second), // generous: single host multiplexes every pair
		}, opts...)...)
		if err != nil {
			t.Fatalf("NewSolo(%s): %v", name, err)
		}
		h.clusters[name] = c
	}
	t.Cleanup(h.close)
	return h
}

func (h *soloHarness) close() {
	for _, c := range h.clusters {
		c.Close()
	}
	for _, tr := range h.trs {
		tr.Close()
	}
}

func (h *soloHarness) member(name string) *Member { return h.clusters[name].Member(name) }

// awaitDelivery drains m's deliveries until payload arrives or the
// deadline passes.
func awaitDelivery(t *testing.T, m *Member, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case d := <-m.Deliveries():
			if string(d.Payload) == want {
				return
			}
		case <-m.Views():
		case <-deadline:
			t.Fatalf("%s: no delivery of %q within %v", m.Name(), want, timeout)
		}
	}
}

// TestSoloMembersOverSeparateTransports is the solo bring-up's core
// property: members with no shared memory — separate transports, separate
// fabrics, separate key directories — form a group over real sockets and
// totally order traffic, verifying each other through the derived keys
// seedRemotePeers installed.
func TestSoloMembersOverSeparateTransports(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster formation")
	}
	roster := []string{"a", "b"}
	h := newSoloHarness(t, roster)
	for _, name := range roster {
		if err := h.member(name).Join("g", roster...); err != nil {
			t.Fatalf("%s join: %v", name, err)
		}
	}
	if err := h.member("a").Multicast("g", TotalSym, []byte("from-a")); err != nil {
		t.Fatalf("multicast: %v", err)
	}
	awaitDelivery(t, h.member("a"), "from-a", 30*time.Second)
	awaitDelivery(t, h.member("b"), "from-a", 30*time.Second)
}

// TestSoloCrashMembersOverSeparateTransports: crash NewTOP members span
// transports too. Each one's ORB naming is seeded from the roster, so
// members with no shared memory form a group over real sockets and every
// member delivers the same total order of everyone's multicasts.
func TestSoloCrashMembersOverSeparateTransports(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster formation")
	}
	const perMember = 5
	roster := []string{"a", "b", "c"}
	h := newSoloHarness(t, roster, WithCrashTolerance(), WithPingSuspector(0, time.Minute))
	for _, name := range roster {
		if err := h.member(name).Join("g", roster...); err != nil {
			t.Fatalf("%s join: %v", name, err)
		}
	}
	for i := range perMember {
		for _, name := range roster {
			if err := h.member(name).Multicast("g", TotalSym, fmt.Appendf(nil, "%s-%d", name, i)); err != nil {
				t.Fatalf("%s multicast: %v", name, err)
			}
		}
	}
	var ref []string
	for _, name := range roster {
		m := h.member(name)
		var got []string
		deadline := time.After(30 * time.Second)
		for len(got) < perMember*len(roster) {
			select {
			case d := <-m.Deliveries():
				got = append(got, d.Origin+":"+string(d.Payload))
			case <-m.Views():
			case <-deadline:
				t.Fatalf("%s: %d of %d deliveries within 30s: %v", name, len(got), perMember*len(roster), got)
			}
		}
		if ref == nil {
			ref = got
		} else if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("%s delivered %v, %s delivered %v", roster[0], ref, name, got)
		}
	}
}

// TestSoloJoinExisting exercises the deploy plane's dynamic path: a third
// solo member is admitted into an already-running two-member group via
// JoinExisting — the PR 7 join protocol (ask, state snapshot, admission
// view) crossing process-equivalent fabric boundaries.
func TestSoloJoinExisting(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster formation")
	}
	h := newSoloHarness(t, []string{"a", "b", "c"})
	roster := []string{"a", "b"}
	for _, name := range roster {
		if err := h.member(name).Join("g", roster...); err != nil {
			t.Fatalf("%s join: %v", name, err)
		}
	}
	if err := h.member("a").Multicast("g", TotalSym, []byte("pre-join")); err != nil {
		t.Fatalf("multicast: %v", err)
	}
	awaitDelivery(t, h.member("b"), "pre-join", 30*time.Second)

	if err := h.member("c").JoinExisting("g", "a", "b"); err != nil {
		t.Fatalf("c JoinExisting: %v", err)
	}
	// Admission: c must appear in an installed view at c itself.
	deadline := time.After(30 * time.Second)
admitted:
	for {
		select {
		case v := <-h.member("c").Views():
			for _, m := range v.Members {
				if m == "c" {
					break admitted
				}
			}
		case <-h.member("c").Deliveries():
		case <-deadline:
			t.Fatal("c never saw a view including itself")
		}
	}
	// And traffic flows to (and from) the newcomer.
	if err := h.member("a").Multicast("g", TotalSym, []byte("post-join")); err != nil {
		t.Fatalf("multicast post-join: %v", err)
	}
	awaitDelivery(t, h.member("c"), "post-join", 30*time.Second)
	if err := h.member("c").Multicast("g", TotalSym, []byte("from-c")); err != nil {
		t.Fatalf("c multicast: %v", err)
	}
	awaitDelivery(t, h.member("a"), "from-c", 30*time.Second)
	awaitDelivery(t, h.member("b"), "from-c", 30*time.Second)
}

func TestSoloRefusals(t *testing.T) {
	tr := netsim.New(clock.NewReal())
	defer tr.Close()
	for _, tc := range []struct {
		name string
		opts []Option
		want string
	}{
		{"no transport", nil, "WithTransport"},
		{"rsa", []Option{WithTransport(tr), WithRSA()}, "HMAC-only"},
		{"auto-heal", []Option{WithTransport(tr), WithAutoHeal()}, "auto-heal"},
	} {
		_, err := NewSolo("a", []string{"b"}, tc.opts...)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if _, err := NewSolo("a", []string{"a"}, WithTransport(tr)); err == nil {
		t.Error("self in peers accepted")
	}
	if _, err := NewSolo("a", []string{"b", "b"}, WithTransport(tr)); err == nil {
		t.Error("duplicate peer accepted")
	}
	if _, err := NewSolo("", []string{"b"}, WithTransport(tr)); err == nil {
		t.Error("empty name accepted")
	}
}

// TestMemberAddrs: the one address plan names four distinct addresses per
// member, each embedding the member's name, and covers what either stack
// occupies: as many of a live member's plan addresses resolve as its
// stack registers.
func TestMemberAddrs(t *testing.T) {
	addrs := MemberAddrs("m07")
	if len(addrs) != 4 {
		t.Fatalf("MemberAddrs returned %d addrs, want 4", len(addrs))
	}
	seen := make(map[transport.Addr]bool)
	for _, a := range addrs {
		if seen[a] {
			t.Errorf("duplicate addr %q", a)
		}
		seen[a] = true
		if !strings.Contains(string(a), "m07") {
			t.Errorf("addr %q does not embed the member name", a)
		}
	}
	for _, stack := range memberStacks {
		t.Run(stack.name, func(t *testing.T) {
			tr := netsim.New(clock.NewReal())
			defer tr.Close()
			c, err := New(append([]Option{WithTransport(tr), WithMembers("m00", "m01")}, stack.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			tr.Register("probe", func(netsim.Message) {})
			live := 0
			for _, a := range MemberAddrs("m00") {
				if tr.Send("probe", a, "probe", nil) == nil {
					live++
				}
			}
			if live != stack.occupies {
				t.Errorf("%d of m00's addresses resolve, want %d", live, stack.occupies)
			}
		})
	}
}

// memberStacks are the two stacks a member runs, with how many of its
// MemberAddrs each occupies.
var memberStacks = []struct {
	name     string
	opts     []Option
	occupies int
}{
	{"crash", []Option{WithCrashTolerance()}, 1},
	{"fail-signal", nil, 3},
}

// TestMemberAddrsGoneAfterClose: a closed member leaves nothing behind on
// a transport its cluster does not own — every address of its plan
// refuses traffic as unknown, whichever stack it ran.
func TestMemberAddrsGoneAfterClose(t *testing.T) {
	for _, stack := range memberStacks {
		t.Run(stack.name, func(t *testing.T) {
			tr := netsim.New(clock.NewReal())
			defer tr.Close()
			c, err := New(append([]Option{WithTransport(tr), WithMembers("m00", "m01")}, stack.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			tr.Register("probe", func(netsim.Message) {})
			c.Close()
			for _, a := range MemberAddrs("m00") {
				if err := tr.Send("probe", a, "probe", nil); !errors.Is(err, transport.ErrUnknownAddr) {
					t.Errorf("closed member: send to %q returned %v, want transport.ErrUnknownAddr", a, err)
				}
			}
		})
	}
}
