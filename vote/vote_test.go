package vote

import (
	"fmt"
	"testing"
	"time"

	"fsnewtop/cluster"
	"fsnewtop/internal/faults"
	"fsnewtop/transport"
)

// counterApp is a deterministic app: each request adds its length to a
// running total; replies carry the total.
func counterApp() AppMachine {
	total := 0
	return AppMachineFunc(func(req []byte) []byte {
		total += len(req)
		return []byte(fmt.Sprintf("total=%d", total))
	})
}

// deployment bundles one replicated-service deployment: a voter plus 2f+1
// app replicas over either middleware, assembled with the public cluster
// API the package composes over.
type deployment struct {
	c     *cluster.Cluster
	voter *Voter
}

// deploy builds the Figure 4 stack: 2f+1 app replicas plus the voting
// client, crash-tolerant (NewTOP) or Byzantine-tolerant (FS-NewTOP).
func deploy(t *testing.T, crashTolerant bool, f int, apps []AppMachine) *deployment {
	t.Helper()
	n := 2*f + 1
	members := []string{"client"}
	for i := 0; i < n; i++ {
		members = append(members, fmt.Sprintf("r%d", i))
	}
	opts := []cluster.Option{
		cluster.WithMembers(members...),
	}
	if crashTolerant {
		opts = append(opts,
			cluster.WithCrashTolerance(),
			cluster.WithPingSuspector(200*time.Millisecond, time.Minute),
		)
	} else {
		opts = append(opts, cluster.WithDelta(100*time.Millisecond))
	}
	c, err := cluster.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.JoinAll("app"); err != nil {
		t.Fatal(err)
	}
	d := &deployment{c: c}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%d", i)
		rep := NewReplica(name, "app", c.Member(name), apps[i], c.Transport())
		t.Cleanup(rep.Close)
	}
	d.voter = NewVoter("client", "app", f, c.Member("client"), c.Transport())
	t.Cleanup(d.voter.Close)
	return d
}

func TestWireRoundTrips(t *testing.T) {
	req := Request{ID: 7, Client: "c", Body: []byte("b")}
	gotReq, err := UnmarshalRequest(req.Marshal())
	if err != nil || gotReq.ID != 7 || gotReq.Client != "c" || string(gotReq.Body) != "b" {
		t.Fatalf("request round trip: %+v %v", gotReq, err)
	}
	resp := Response{ID: 9, Replica: "r", Body: []byte("x")}
	gotResp, err := UnmarshalResponse(resp.Marshal())
	if err != nil || gotResp.ID != 9 || gotResp.Replica != "r" || string(gotResp.Body) != "x" {
		t.Fatalf("response round trip: %+v %v", gotResp, err)
	}
	if _, err := UnmarshalRequest([]byte{1}); err == nil {
		t.Fatal("garbage request decoded")
	}
	if _, err := UnmarshalResponse([]byte{1}); err == nil {
		t.Fatal("garbage response decoded")
	}
}

func TestVotingAllCorrectOverNewTOP(t *testing.T) {
	apps := []AppMachine{counterApp(), counterApp(), counterApp()}
	d := deploy(t, true, 1, apps)
	for i := 1; i <= 3; i++ {
		got, err := d.voter.Submit([]byte("xx"), 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("total=%d", 2*i)
		if string(got) != want {
			t.Fatalf("request %d: got %q, want %q (replica state machines diverged?)", i, got, want)
		}
	}
}

func TestVotingMasksOneLiarOverNewTOP(t *testing.T) {
	inner := counterApp()
	apps := []AppMachine{
		counterApp(),
		&faults.LyingApp{Inner: inner.Apply},
		counterApp(),
	}
	d := deploy(t, true, 1, apps)
	got, err := d.voter.Submit([]byte("abc"), 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "total=3" {
		t.Fatalf("majority result = %q, want total=3", got)
	}
}

func TestVotingNoMajorityWithTwoIndependentLiars(t *testing.T) {
	innerA, innerB := counterApp(), counterApp()
	apps := []AppMachine{
		&faults.LyingApp{Inner: innerA.Apply, Mask: 0x0F},
		&faults.LyingApp{Inner: innerB.Apply, Mask: 0xF0},
		counterApp(),
	}
	d := deploy(t, true, 1, apps)
	if _, err := d.voter.Submit([]byte("abc"), 2*time.Second); err == nil {
		t.Fatal("voter accepted a result despite two independent liars (f exceeded)")
	}
}

func TestVotingOverFSNewTOP(t *testing.T) {
	inner := counterApp()
	apps := []AppMachine{
		counterApp(),
		&faults.LyingApp{Inner: inner.Apply},
		counterApp(),
	}
	d := deploy(t, false, 1, apps)
	for i := 1; i <= 2; i++ {
		got, err := d.voter.Submit([]byte("wxyz"), 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("total=%d", 4*i)
		if string(got) != want {
			t.Fatalf("request %d over FS-NewTOP: got %q, want %q", i, got, want)
		}
	}
}

func TestVoterCountsOneVotePerReplica(t *testing.T) {
	// A single replica repeating itself must not reach a 2-vote majority.
	c, err := cluster.New(
		cluster.WithMembers("client", "idle"),
		cluster.WithCrashTolerance(),
		cluster.WithPingSuspector(200*time.Millisecond, time.Minute),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.JoinAll("app"); err != nil {
		t.Fatal(err)
	}
	idle := c.Member("idle")
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-idle.Deliveries():
			case <-idle.Views():
			}
		}
	}()
	v := NewVoter("client", "app", 1, c.Member("client"), c.Transport())
	t.Cleanup(v.Close)

	net := c.Transport()
	net.Register("spammer", func(transport.Message) {})
	done := make(chan error, 1)
	go func() {
		_, err := v.Submit([]byte("q"), time.Second)
		done <- err
	}()
	// Spam duplicate votes from one identity.
	time.Sleep(50 * time.Millisecond)
	resp := Response{ID: 1, Replica: "r0", Body: []byte("forged")}
	for i := 0; i < 5; i++ {
		_ = net.Send("spammer", voterAddr("client"), msgResponse, resp.Marshal())
	}
	if err := <-done; err == nil {
		t.Fatal("duplicate votes from one replica reached a majority")
	}
}
