package failsignal

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/codec"
	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
	"fsnewtop/transport/netsim"
)

// echoMachine is a deterministic machine: for every input of kind "req" it
// emits one output whose payload is the input payload prefixed with a
// running sequence number. The sequence prefix makes output content depend
// on input *order*, so any order divergence between the replicas of a pair
// surfaces as a comparison mismatch.
type echoMachine struct {
	n     uint64
	to    []string
	kind  string
	ticks uint64
}

func newEchoMachine(kind string, to ...string) *echoMachine {
	return &echoMachine{kind: kind, to: to}
}

func (m *echoMachine) Step(in sm.Input) []sm.Output {
	switch in.Kind {
	case sm.TickKind:
		m.ticks++
		return nil
	case "req":
		m.n++
		payload := append([]byte(fmt.Sprintf("%06d|", m.n)), in.Payload...)
		return []sm.Output{{Kind: m.kind, To: m.to, Payload: payload}}
	case InputFailSignal:
		return []sm.Output{{Kind: "saw-failsignal", To: m.to, Payload: []byte(in.From)}}
	default:
		return nil
	}
}

// corruptingMachine wraps a machine and flips a byte in the Nth output.
type corruptingMachine struct {
	inner   sm.Machine
	corrupt uint64 // 1-based output index to corrupt
	n       uint64
}

func (m *corruptingMachine) Step(in sm.Input) []sm.Output {
	outs := m.inner.Step(in)
	for i := range outs {
		m.n++
		if m.n == m.corrupt && len(outs[i].Payload) > 0 {
			bad := append([]byte(nil), outs[i].Payload...) // never in place: it may alias shared input bytes
			bad[0] ^= 0xFF
			outs[i].Payload = bad
		}
	}
	return outs
}

// decodeNewPayload is newPayload.decode returning the payload by value,
// for tests that inspect one decode.
func decodeNewPayload(b []byte) (newPayload, error) {
	var p newPayload
	if err := p.decode(b, nil, nil); err != nil {
		return newPayload{}, err
	}
	return p, nil
}

// outputOf returns the output bytes of a tagFSD payload.
func outputOf(t *testing.T, raw []byte) []byte {
	t.Helper()
	p, err := decodeNewPayload(raw)
	if err != nil {
		t.Fatal(err)
	}
	return p.full
}

// formOf is the digest form of an output encoding with no body regions
// (taken over its tagFSD payload up to the end of the encoding), what a
// signed digest body carries for it.
func formOf(full []byte) [32]byte {
	w := codec.NewWriter(5 + len(full))
	w.U8(tagFSD)
	w.Bytes32(full)
	return (*sig.BodyMemo)(nil).Form(w.Bytes(), nil)
}

// encodeFSDigestPayload assembles the tagFSD payload of full, with no
// region table, beside dbl: how a test mints a copy a pair never built.
func encodeFSDigestPayload(dbl sig.Double, full []byte) []byte {
	w := codec.NewWriter(1 + 4 + len(full) + 4 + len(dbl.Marshal()))
	w.U8(tagFSD)
	w.Bytes32(full)
	w.RegionTable(nil)
	dbl.Encode(w)
	return w.Bytes()
}

// signClientPayload signs ci, its payload g in gather form when not nil,
// as s and returns the MsgNew payload in one slice (signClient, flattened).
func signClientPayload(s sig.Signer, ci ClientInput, g *codec.Gather) ([]byte, error) {
	ci.gather = g
	b, pg, err := signClient(s, ci)
	if pg != nil {
		b = pg.Flat()
	}
	return b, err
}

// encodeClientPayload wraps an envelope a test signed (or forged) as a
// tagClient payload with no region table.
func encodeClientPayload(env sig.Envelope) []byte {
	w := codec.NewWriter(1 + len(env.Marshal()) + 4)
	w.U8(tagClient)
	env.Encode(w)
	w.RegionTable(nil)
	return w.Bytes()
}

// env bundles the common test fixture.
type env struct {
	t    *testing.T
	net  *netsim.Network
	dir  *Directory
	keys *sig.Directory
	clk  clock.Clock
}

func newEnv(t *testing.T) *env {
	t.Helper()
	n := netsim.New(clock.NewReal(), netsim.WithDefaultProfile(netsim.Profile{
		Latency: netsim.Fixed(100 * time.Microsecond),
	}))
	t.Cleanup(n.Close)
	return &env{
		t:    t,
		net:  n,
		dir:  NewDirectory(),
		keys: sig.NewDirectory(),
		clk:  clock.NewReal(),
	}
}

// pairConfig returns a ready PairConfig for a test pair named name whose
// machine sends outputs of the given kind to the given destinations.
func (e *env) pairConfig(name string, machine func() sm.Machine) PairConfig {
	return PairConfig{
		Name:       name,
		NewMachine: machine,
		Net:        e.net,
		Clock:      e.clk,
		Dir:        e.dir,
		Keys:       e.keys,
		Delta:      50 * time.Millisecond,
	}
}

// appSink is a plain endpoint collecting verified FS outputs.
type appSink struct {
	mu    sync.Mutex
	outs  []sm.Output
	srcs  []string
	fails []string
	cond  *sync.Cond
}

func newAppSink() *appSink {
	s := &appSink{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *appSink) onOutput(source string, out sm.Output) {
	s.mu.Lock()
	s.outs = append(s.outs, out)
	s.srcs = append(s.srcs, source)
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *appSink) onFail(source string) {
	s.mu.Lock()
	s.fails = append(s.fails, source)
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *appSink) waitOutputs(t *testing.T, n int, d time.Duration) []sm.Output {
	t.Helper()
	deadline := time.Now().Add(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.outs) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d outputs, want %d (fails: %v)", len(s.outs), n, s.fails)
		}
		s.mu.Unlock()
		time.Sleep(500 * time.Microsecond)
		s.mu.Lock()
	}
	out := make([]sm.Output, len(s.outs))
	copy(out, s.outs)
	return out
}

func (s *appSink) waitFail(t *testing.T, d time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.fails) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for a fail-signal")
		}
		s.mu.Unlock()
		time.Sleep(500 * time.Microsecond)
		s.mu.Lock()
	}
	return s.fails[0]
}

func (s *appSink) outputCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.outs)
}

func (s *appSink) failCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.fails)
}

// addApp registers a plain endpoint with a receiver and returns its sink.
func (e *env) addApp(name string) *appSink {
	sink := newAppSink()
	rc := NewReceiver(e.dir, e.keys, sink.onOutput, sink.onFail)
	addr := netsim.Addr(name)
	e.dir.RegisterPlain(name, addr)
	e.net.Register(addr, rc.Handle)
	return sink
}

// addClient registers a signed client endpoint.
func (e *env) addClient(name string) *Client {
	signer := sig.NewHMACSigner(sig.ID(name), []byte("client-key-"+name))
	if err := e.keys.RegisterSigner(signer); err != nil {
		e.t.Fatal(err)
	}
	addr := netsim.Addr(name)
	e.dir.RegisterPlain(name, addr)
	e.net.Register(addr, func(netsim.Message) {})
	return NewClient(name, addr, signer, e.net, e.dir)
}

func TestPairDeliversDoubleCheckedOutput(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfg.LocalName = "app"
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	client := e.addClient("client")
	if err := client.Send("p", "req", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	outs := sink.waitOutputs(t, 1, 5*time.Second)
	if outs[0].Kind != "resp" || string(outs[0].Payload) != "000001|hello" {
		t.Fatalf("output = %+v", outs[0])
	}
	// The two Compare threads each dispatch a copy; the receiver must
	// deliver exactly once.
	time.Sleep(20 * time.Millisecond)
	if n := sink.outputCount(); n != 1 {
		t.Fatalf("delivered %d copies, want 1", n)
	}
	if pair.Failed() {
		t.Fatal("healthy pair reported failure")
	}
}

func TestPairPreservesClientOrderUnderLoad(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfg.LocalName = "app"
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	client := e.addClient("client")
	const total = 300
	for i := 0; i < total; i++ {
		if err := client.Send("p", "req", []byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	outs := sink.waitOutputs(t, total, 15*time.Second)
	// The sequence prefixes must be 1..total in delivery order: the pair
	// processed one agreed order and FIFO links preserved it.
	for i, out := range outs {
		want := fmt.Sprintf("%06d|", i+1)
		if string(out.Payload[:7]) != want {
			t.Fatalf("output %d has prefix %q, want %q", i, out.Payload[:7], want)
		}
	}
	if pair.Failed() {
		t.Fatal("pair fail-signalled under load")
	}
	if sink.failCount() != 0 {
		t.Fatalf("app saw %d fail-signals", sink.failCount())
	}
}

func TestDuplicateSubmissionsSuppressed(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfg.LocalName = "app"
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	// Hand-craft a signed input and submit it three times to both replicas.
	signer := sig.NewHMACSigner("dup-client", []byte("k"))
	if err := e.keys.RegisterSigner(signer); err != nil {
		t.Fatal(err)
	}
	e.dir.RegisterPlain("dup-client", "dup-client")
	e.net.Register("dup-client", func(netsim.Message) {})
	ci := ClientInput{Client: "dup-client", Seq: 9, Kind: "req", Body: []byte("once")}
	payload, err := signClientPayload(signer, ci, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, a := range []netsim.Addr{LeaderAddr("p"), FollowerAddr("p")} {
			if err := e.net.Send("dup-client", a, MsgNew, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	sink.waitOutputs(t, 1, 5*time.Second)
	time.Sleep(50 * time.Millisecond)
	if n := sink.outputCount(); n != 1 {
		t.Fatalf("duplicate submissions produced %d outputs, want 1", n)
	}
	if got := pair.Leader.Stats().Duplicates; got == 0 {
		t.Fatal("leader counted no duplicates")
	}
}

func TestCorruptReplicaOutputTriggersFailSignal(t *testing.T) {
	for _, role := range []string{"leader", "follower"} {
		role := role
		t.Run(role, func(t *testing.T) {
			e := newEnv(t)
			sink := e.addApp("app")
			instance := 0
			cfg := e.pairConfig("p", func() sm.Machine {
				instance++
				m := sm.Machine(newEchoMachine("resp", sm.LocalDelivery))
				if (role == "leader" && instance == 1) || (role == "follower" && instance == 2) {
					m = &corruptingMachine{inner: m, corrupt: 2}
				}
				return m
			})
			cfg.LocalName = "app"
			pair, err := NewPair(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer pair.Close()

			client := e.addClient("client")
			for i := 0; i < 3; i++ {
				if err := client.Send("p", "req", []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			if src := sink.waitFail(t, 5*time.Second); src != "p" {
				t.Fatalf("fail-signal attributed to %q, want %q", src, "p")
			}
			if !pair.Failed() {
				t.Fatal("pair did not record failure")
			}
		})
	}
}

func TestCrashedFollowerDetectedByLeader(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfg.LocalName = "app"
	cfg.Delta = 20 * time.Millisecond
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	pair.Follower.Crash()
	client := e.addClient("client")
	if err := client.Send("p", "req", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if src := sink.waitFail(t, 5*time.Second); src != "p" {
		t.Fatalf("fail-signal from %q, want p", src)
	}
	if sink.outputCount() != 0 {
		t.Fatal("output delivered despite follower crash")
	}
}

func TestCrashedLeaderDetectedByFollower(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfg.LocalName = "app"
	cfg.Delta = 20 * time.Millisecond
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	pair.Leader.Crash()
	client := e.addClient("client")
	if err := client.Send("p", "req", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Follower relays after t1=0, then t2=2δ expires without the leader
	// ordering the input.
	if src := sink.waitFail(t, 5*time.Second); src != "p" {
		t.Fatalf("fail-signal from %q, want p", src)
	}
	if got := pair.Follower.Stats().Relayed; got == 0 {
		t.Fatal("follower never relayed to the leader")
	}
}

func TestInjectedFailSignalReachesWatchers(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("watcher")
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfg.Watchers = []string{"watcher"}
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	pair.Leader.InjectFailSignal()
	if src := sink.waitFail(t, 5*time.Second); src != "p" {
		t.Fatalf("fail-signal from %q", src)
	}
}

func TestFailedReplicaAnswersWithFailSignal(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	pair.Leader.InjectFailSignal()
	// Wait for the failure to take effect, then poke the failed replica
	// from the app's address: it must answer with the fail-signal.
	deadline := time.Now().Add(2 * time.Second)
	for !pair.Leader.Failed() {
		if time.Now().After(deadline) {
			t.Fatal("leader never failed")
		}
		time.Sleep(time.Millisecond)
	}
	client := e.addClient("app2")
	_ = client
	if err := e.net.Send("app", LeaderAddr("p"), MsgNew, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if src := sink.waitFail(t, 5*time.Second); src != "p" {
		t.Fatalf("fail-signal from %q", src)
	}
}

func TestFSToFSChain(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	// Pair A forwards to pair B; pair B delivers to the app.
	cfgB := e.pairConfig("B", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfgB.LocalName = "app"
	pairB, err := NewPair(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer pairB.Close()

	cfgA := e.pairConfig("A", func() sm.Machine { return newEchoMachine("req", "B") })
	pairA, err := NewPair(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer pairA.Close()

	client := e.addClient("client")
	if err := client.Send("A", "req", []byte("chain")); err != nil {
		t.Fatal(err)
	}
	outs := sink.waitOutputs(t, 1, 5*time.Second)
	// A prefixed once, B prefixed again.
	if string(outs[0].Payload) != "000001|000001|chain" {
		t.Fatalf("chained payload = %q", outs[0].Payload)
	}
	if pairA.Failed() || pairB.Failed() {
		t.Fatal("chain pairs fail-signalled")
	}
}

func TestFailSignalPropagatesAsInputToFSProcess(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	cfgB := e.pairConfig("B", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfgB.LocalName = "app"
	pairB, err := NewPair(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer pairB.Close()

	cfgA := e.pairConfig("A", func() sm.Machine { return newEchoMachine("req", "B") })
	cfgA.Watchers = []string{"B"}
	pairA, err := NewPair(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer pairA.Close()

	pairA.Leader.InjectFailSignal()
	// B's machine reacts to the verified fail-signal input by emitting a
	// "saw-failsignal" output naming A.
	outs := sink.waitOutputs(t, 1, 5*time.Second)
	if outs[0].Kind != "saw-failsignal" || string(outs[0].Payload) != "A" {
		t.Fatalf("B's machine saw %+v", outs[0])
	}
}

func TestForgedFailSignalRejected(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfg.LocalName = "app"
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	// An attacker with its own keys fabricates a fail-signal naming p.
	evil1 := sig.NewHMACSigner("evil1", []byte("e1"))
	evil2 := sig.NewHMACSigner("evil2", []byte("e2"))
	if err := e.keys.RegisterSigner(evil1); err != nil {
		t.Fatal(err)
	}
	if err := e.keys.RegisterSigner(evil2); err != nil {
		t.Fatal(err)
	}
	body := failSignalBody("p").Marshal()
	envl, _ := sig.SignEnvelope(evil1, body)
	dbl, _ := sig.CounterSign(evil2, envl)
	e.dir.RegisterPlain("evil", "evil")
	e.net.Register("evil", func(netsim.Message) {})
	if err := e.net.Send("evil", "app", MsgOut, encodeFSPayload(dbl)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if sink.failCount() != 0 {
		t.Fatal("receiver accepted a forged fail-signal")
	}
}

func TestFollowerRejectsForgedForwardedInput(t *testing.T) {
	e := newEnv(t)
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	failCh := make(chan string, 2)
	cfg.OnFailSignal = func(reason string) { failCh <- reason }
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	// A faulty leader node forwards a fabricated (unsigned) client input.
	ci := ClientInput{Client: "ghost", Seq: 1, Kind: "req", Body: []byte("forged")}
	fakeEnv := sig.Envelope{Signer: "ghost", Body: ci.Marshal(), Sig: []byte("junk")}
	fp := fwdPayload{Index: 0, Raw: encodeClientPayload(fakeEnv)}
	if err := e.net.Send(LeaderAddr("p"), FollowerAddr("p"), MsgFwd, fp.marshal()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-failCh:
	case <-time.After(5 * time.Second):
		t.Fatal("follower accepted a forged forwarded input")
	}
	if !pair.Follower.Failed() {
		t.Fatal("follower not in failed state")
	}
}

func TestFollowerDetectsOrderGap(t *testing.T) {
	e := newEnv(t)
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	failCh := make(chan string, 2)
	cfg.OnFailSignal = func(reason string) { failCh <- reason }
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	// Deliver a correctly signed input, but at order index 7 (gap).
	signer := sig.NewHMACSigner("c2", []byte("k2"))
	if err := e.keys.RegisterSigner(signer); err != nil {
		t.Fatal(err)
	}
	ci := ClientInput{Client: "c2", Seq: 1, Kind: "req", Body: []byte("x")}
	raw, _ := signClientPayload(signer, ci, nil)
	fp := fwdPayload{Index: 7, Raw: raw}
	if err := e.net.Send(LeaderAddr("p"), FollowerAddr("p"), MsgFwd, fp.marshal()); err != nil {
		t.Fatal(err)
	}
	select {
	case reason := <-failCh:
		if want := "order gap"; len(reason) < len(want) || reason[:len(want)] != want {
			t.Fatalf("reason = %q", reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower accepted an order gap")
	}
}

func TestTicksDriveBothReplicasIdentically(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfg.LocalName = "app"
	cfg.TickInterval = 2 * time.Millisecond
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	client := e.addClient("client")
	// Interleave requests with ticks; outputs must still compare equal.
	for i := 0; i < 20; i++ {
		if err := client.Send("p", "req", []byte("t")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	sink.waitOutputs(t, 20, 10*time.Second)
	if pair.Failed() {
		t.Fatal("ticks caused a spurious fail-signal")
	}
}

func TestUnauthenticatedClientRejected(t *testing.T) {
	e := newEnv(t)
	sink := e.addApp("app")
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfg.LocalName = "app"
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()

	// A client whose key is NOT registered.
	rogue := sig.NewHMACSigner("rogue", []byte("r"))
	ci := ClientInput{Client: "rogue", Seq: 1, Kind: "req", Body: []byte("x")}
	envl, _ := sig.SignEnvelope(rogue, ci.Marshal())
	e.dir.RegisterPlain("rogue", "rogue")
	e.net.Register("rogue", func(netsim.Message) {})
	for _, a := range []netsim.Addr{LeaderAddr("p"), FollowerAddr("p")} {
		if err := e.net.Send("rogue", a, MsgNew, encodeClientPayload(envl)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if sink.outputCount() != 0 {
		t.Fatal("unauthenticated input was processed")
	}
	if pair.Leader.Stats().Rejected == 0 {
		t.Fatal("leader did not count the rejection")
	}
}

func TestPairConfigValidation(t *testing.T) {
	e := newEnv(t)
	if _, err := NewPair(PairConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := e.pairConfig("", func() sm.Machine { return newEchoMachine("r") })
	if _, err := NewPair(cfg); err == nil {
		t.Fatal("nameless pair accepted")
	}
	cfg = e.pairConfig("x", nil)
	if _, err := NewPair(cfg); err == nil {
		t.Fatal("machineless pair accepted")
	}
	cfg = e.pairConfig("x", func() sm.Machine { return newEchoMachine("r") })
	cfg.Delta = 0
	if _, err := NewPair(cfg); err == nil {
		t.Fatal("zero-delta pair accepted")
	}
}

func TestReplicaConfigValidation(t *testing.T) {
	e := newEnv(t)
	_, err := NewReplica(ReplicaConfig{Name: "x", Delta: time.Second, Machine: newEchoMachine("r"), Role: Role(9), Net: e.net, Clock: e.clk})
	if err == nil {
		t.Fatal("invalid role accepted")
	}
}

func TestRoleString(t *testing.T) {
	if Leader.String() != "leader" || Follower.String() != "follower" {
		t.Fatal("role strings wrong")
	}
	if Role(9).String() == "" {
		t.Fatal("unknown role has empty string")
	}
}

// Property: arbitrary payloads survive the full pair round trip intact.
func TestQuickPayloadsSurviveRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e := newEnv(t)
	sink := e.addApp("app")
	cfg := e.pairConfig("p", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
	cfg.LocalName = "app"
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	client := e.addClient("client")

	var sent [][]byte
	f := func(payload []byte) bool {
		sent = append(sent, append([]byte(nil), payload...))
		return client.Send("p", "req", payload) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	outs := sink.waitOutputs(t, len(sent), 15*time.Second)
	for i, out := range outs {
		want := fmt.Sprintf("%06d|%s", i+1, sent[i])
		if string(out.Payload) != want {
			t.Fatalf("output %d = %q, want %q", i, out.Payload, want)
		}
	}
}

func TestDirectoryLookupAndNames(t *testing.T) {
	d := NewDirectory()
	d.RegisterFS("fs1", "fs1#L", "fs1#F", "fs1#L", "fs1#F")
	d.RegisterPlain("app", "app-addr")
	if _, err := d.Lookup("nope"); err == nil {
		t.Fatal("lookup of unknown name succeeded")
	}
	names := d.Names()
	if len(names) != 2 || names[0] != "app" || names[1] != "fs1" {
		t.Fatalf("Names = %v", names)
	}
	addrs, err := d.DestAddrs("fs1")
	if err != nil || len(addrs) != 2 {
		t.Fatalf("FS DestAddrs = %v, %v", addrs, err)
	}
	addrs, err = d.DestAddrs("app")
	if err != nil || len(addrs) != 1 || addrs[0] != "app-addr" {
		t.Fatalf("plain DestAddrs = %v, %v", addrs, err)
	}
	if _, err := d.DestAddrs("ghost"); err == nil {
		t.Fatal("DestAddrs of unknown name succeeded")
	}
}

func TestVerifyFromFSRejectsPlainSource(t *testing.T) {
	d := NewDirectory()
	d.RegisterPlain("app", "a")
	if err := d.VerifyFromFS("app", sig.Double{}, sig.NewDirectory()); err == nil {
		t.Fatal("plain process verified as FS source")
	}
}

func TestWireRoundTrips(t *testing.T) {
	ci := ClientInput{Client: "c", Seq: 42, Kind: "k", Body: []byte("b")}
	got, err := UnmarshalClientInput(ci.Marshal())
	if err != nil || got.Client != "c" || got.Seq != 42 || got.Kind != "k" || string(got.Body) != "b" {
		t.Fatalf("client input round trip: %+v, %v", got, err)
	}
	ob := OutputBody{Source: "s", Seq: 7, FailSignal: true, Output: []byte("o")}
	gotOB, err := UnmarshalOutputBody(ob.Marshal())
	if err != nil || gotOB.Source != "s" || gotOB.Seq != 7 || !gotOB.FailSignal || string(gotOB.Output) != "o" {
		t.Fatalf("output body round trip: %+v, %v", gotOB, err)
	}
	fp := fwdPayload{Index: 3, Raw: []byte("raw")}
	gotFP, err := unmarshalFwdPayload(fp.marshal())
	if err != nil || gotFP.Index != 3 || string(gotFP.Raw) != "raw" {
		t.Fatalf("fwd payload round trip: %+v, %v", gotFP, err)
	}
	if _, err := decodeNewPayload([]byte{99}); err == nil {
		t.Fatal("unknown tag decoded")
	}
	if _, err := decodeNewPayload(nil); err == nil {
		t.Fatal("empty payload decoded")
	}
}

// gatedMachine reports each input it starts stepping on entered and then
// waits for the test to release the step.
type gatedMachine struct {
	entered chan string
	release chan struct{}
}

func (m *gatedMachine) Step(in sm.Input) []sm.Output {
	if in.Kind == "req" {
		m.entered <- string(in.Payload)
		<-m.release
	}
	return nil
}

// TestDMQ pins the Delivered Message Queue as the replica's loop runs it:
// inputs are stepped one at a time in the order they were queued, and a
// replica that has crashed steps nothing more — the step in progress
// completes, and the backlog behind it is dropped, not drained.
func TestDMQ(t *testing.T) {
	e := newEnv(t)
	m := &gatedMachine{entered: make(chan string, 8), release: make(chan struct{})}
	cfg := e.pairConfig("p", func() sm.Machine { return silentMachine{} })
	cfg.Delta = time.Hour // the stalled leader must not look dead to its follower
	cfg.WrapMachine = func(role Role, inner sm.Machine) sm.Machine {
		if role == Leader {
			return m
		}
		return inner
	}
	pair, err := NewPair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	signer := newClientSigner(t, e, "c")
	for i := 0; i < 5; i++ {
		pair.Leader.handle(newMsg("c", clientInput(t, signer, uint64(i+1), []byte{'a' + byte(i)})))
	}
	for i := 0; i < 3; i++ {
		select {
		case got := <-m.entered:
			if want := string(rune('a' + i)); got != want {
				t.Fatalf("step %d ran input %q, want %q", i, got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("the loop never started step %d", i)
		}
		if i < 2 {
			m.release <- struct{}{}
		}
	}
	pair.Leader.Crash() // the loop is inside step 3, with two inputs queued behind it
	close(m.release)
	pair.Leader.Close()
	if n := len(m.entered); n != 0 {
		t.Fatalf("a crashed replica stepped %d more queued inputs", n)
	}
}

// profileWithLatency builds a fixed-latency netsim profile (test helper).
func profileWithLatency(d time.Duration) netsim.Profile {
	return netsim.Profile{Latency: netsim.Fixed(d)}
}

// netsimMessage aliases netsim.Message for edge tests.
type netsimMessage = netsim.Message
