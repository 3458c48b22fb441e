package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/codec"
	failsignal "fsnewtop/internal/core"
	"fsnewtop/internal/group"
	"fsnewtop/internal/orb"
	"fsnewtop/internal/sig"
	"fsnewtop/internal/sm"
	"fsnewtop/transport"
	"fsnewtop/transport/netsim"
	"fsnewtop/transport/tcpnet"
)

// probeRepeats is how many times a layer probe repeats its fixed number
// of iterations; the median repeat is reported.
const probeRepeats = 5

// probeWait bounds every wait on a probe's transport.
const probeWait = 10 * time.Second

// perOp times iters runs of fn, probeRepeats times over, and returns the
// median repeat's nanoseconds per run.
func perOp(iters int, fn func()) float64 {
	var samples []float64
	for rep := 0; rep < probeRepeats; rep++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(start))/float64(iters))
	}
	return median(samples)
}

// allocsPerOp counts heap allocations per run of fn.
func allocsPerOp(iters int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// layerProbes times each layer alone through its public functions, with
// no cluster running: the unit costs that the traced run's counts
// multiply. scale divides every iteration count (the smoke test runs one
// iteration of each).
func layerProbes(scale int) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, probe := range []func(int, map[string]float64) error{
		probeSig, probeCodec, probeGroup, probePair, probeORB, probeNetsim, probeTCP,
	} {
		if err := probe(scale, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func iterations(n, scale int) int {
	if n /= scale; n < 1 {
		return 1
	}
	return n
}

func probeSig(scale int, out map[string]float64) error {
	a := sig.NewHMACSigner("a", []byte("probe-key-a"))
	b := sig.NewHMACSigner("b", []byte("probe-key-b"))
	dir := sig.NewDirectoryCache(0) // no memo: every verify below does the real work
	for _, s := range []sig.Signer{a, b} {
		if err := dir.RegisterSigner(s); err != nil {
			return fmt.Errorf("sig probe: %w", err)
		}
	}
	body16, body8k := make([]byte, 16), make([]byte, 8<<10)
	env16, err := sig.SignEnvelope(a, body16)
	if err != nil {
		return fmt.Errorf("sig probe: %w", err)
	}
	env8k, _ := sig.SignEnvelope(a, body8k)
	dbl, err := sig.CounterSign(b, env16)
	if err != nil {
		return fmt.Errorf("sig probe: %w", err)
	}
	if err := dbl.Verify(dir); err != nil {
		return fmt.Errorf("sig probe: double signature does not verify: %w", err)
	}
	memo := sig.NewCachedVerifier(dir, 1024)
	if err := env16.Verify(memo); err != nil {
		return fmt.Errorf("sig probe: %w", err)
	}

	n := iterations(20000, scale)
	out["sig.hmac_sign_us_16"] = perOp(n, func() { sig.SignEnvelope(a, body16) }) / 1e3
	out["sig.hmac_verify_us_16"] = perOp(n, func() { env16.Verify(dir) }) / 1e3
	out["sig.hmac_verify_us_8k"] = perOp(iterations(2000, scale), func() { env8k.Verify(dir) }) / 1e3
	out["sig.countersign_us"] = perOp(n, func() { sig.CounterSign(b, env16) }) / 1e3
	out["sig.double_verify_us"] = perOp(n, func() { dbl.Verify(dir) }) / 1e3
	out["sig.cached_verify_hit_ns"] = perOp(n, func() { env16.Verify(memo) })

	r, err := sig.NewRSASigner("r", sig.RSAKeySize, nil)
	if err != nil {
		return fmt.Errorf("sig probe: %w", err)
	}
	if err := dir.RegisterSigner(r); err != nil {
		return fmt.Errorf("sig probe: %w", err)
	}
	envRSA, err := sig.SignEnvelope(r, body16)
	if err != nil {
		return fmt.Errorf("sig probe: %w", err)
	}
	if err := envRSA.Verify(dir); err != nil {
		return fmt.Errorf("sig probe: RSA signature does not verify: %w", err)
	}
	out["sig.rsa_sign_us"] = perOp(iterations(40, scale), func() { sig.SignEnvelope(r, body16) }) / 1e3
	out["sig.rsa_verify_us"] = perOp(iterations(400, scale), func() { envRSA.Verify(dir) }) / 1e3
	return nil
}

func probeCodec(scale int, out map[string]float64) error {
	roundTrip := func(payload []byte) func() {
		return func() {
			w := codec.NewWriter(len(payload) + 32)
			w.U64(42)
			w.String("m03")
			w.Bytes32(payload)
			r := codec.NewReader(w.Bytes())
			r.U64()
			_ = r.String()
			r.Bytes32()
		}
	}
	small, large := make([]byte, 16), make([]byte, 8<<10)
	r := codec.NewReader(nil)
	if r.U8(); r.Err() == nil {
		return fmt.Errorf("codec probe: reading past the end did not fail")
	}
	out["codec.roundtrip_ns_16"] = perOp(iterations(100000, scale), roundTrip(small))
	out["codec.roundtrip_us_8k"] = perOp(iterations(10000, scale), roundTrip(large)) / 1e3
	out["codec.allocs_per_roundtrip"] = allocsPerOp(iterations(10000, scale), roundTrip(small))
	return nil
}

// machines is n group machines wired by an in-memory router: the group
// protocol with no transport, no pair and no crypto under it.
type machines struct {
	names     []string
	byName    map[string]*group.Machine
	queue     []routed
	now       time.Time
	steps     int
	outputs   int
	delivered int
}

type routed struct {
	from, to, kind string
	payload        []byte
}

func newMachines(n int) *machines {
	g := &machines{names: memberNames(n), byName: make(map[string]*group.Machine), now: time.Unix(1e9, 0)}
	for _, name := range g.names {
		g.byName[name] = group.New(group.Config{Self: name, Mode: group.SuspectFailSignal})
		g.step(name, sm.Tick(g.now))
	}
	for _, name := range g.names {
		g.step(name, sm.Input{Kind: group.KindJoin, Payload: group.JoinReq{Group: groupName, Members: g.names}.Marshal()})
	}
	g.settle()
	return g
}

func (g *machines) step(self string, in sm.Input) {
	outs := g.byName[self].Step(in)
	g.steps++
	for _, o := range outs {
		for _, to := range o.To {
			if to == sm.LocalDelivery {
				if o.Kind == group.KindDeliver {
					g.delivered++
				}
				continue
			}
			g.outputs++
			g.queue = append(g.queue, routed{self, to, o.Kind, o.Payload})
		}
	}
}

// settle routes queued outputs until none is left.
func (g *machines) settle() {
	for len(g.queue) > 0 {
		m := g.queue[0]
		g.queue = g.queue[1:]
		g.step(m.to, sm.Input{Kind: m.kind, From: m.from, Payload: m.payload})
	}
}

// multicast sends one symmetric-order multicast from every member and
// steps the machines, ticking 5 ms at a time when they go quiet, until
// every member has delivered all of them.
func (g *machines) multicast() error {
	want := g.delivered + len(g.names)*len(g.names)
	for _, name := range g.names {
		req := group.McastReq{Group: groupName, Service: group.TotalSym, Payload: make([]byte, 16)}
		g.step(name, sm.Input{Kind: group.KindMcast, Payload: req.Marshal()})
	}
	for ticks := 0; ; ticks++ {
		g.settle()
		if g.delivered >= want {
			return nil
		}
		if ticks > 1000 {
			return fmt.Errorf("group probe: %d machines delivered %d of %d", len(g.names), g.delivered, want)
		}
		g.now = g.now.Add(5 * time.Millisecond)
		for _, name := range g.names {
			g.step(name, sm.Tick(g.now))
		}
	}
}

func probeGroup(scale int, out map[string]float64) error {
	for _, n := range []int{4, 10} {
		rounds := iterations(400/n, scale)
		var stepNs, steps, outputs []float64
		for rep := 0; rep < probeRepeats; rep++ {
			g := newMachines(n)
			g.steps, g.outputs = 0, 0
			// The router's queue work is timed with the steps: reading the
			// clock around each half-microsecond step would cost more.
			start := time.Now()
			for i := 0; i < rounds; i++ {
				if err := g.multicast(); err != nil {
					return err
				}
			}
			multicasts := float64(rounds * n)
			stepNs = append(stepNs, float64(time.Since(start))/float64(g.steps))
			steps = append(steps, float64(g.steps)/multicasts)
			outputs = append(outputs, float64(g.outputs)/multicasts)
		}
		out[fmt.Sprintf("group.step_us_n%d", n)] = median(stepNs) / 1e3
		if n == 10 {
			out["group.steps_per_multicast_n10"] = median(steps)
			out["group.outputs_per_multicast_n10"] = median(outputs)
		}
	}
	g := newMachines(4)
	before := g.steps
	allocs := allocsPerOp(iterations(50, scale), func() { g.multicast() })
	out["group.allocs_per_step"] = allocs * float64(iterations(50, scale)) / float64(g.steps-before)
	return nil
}

// echo is the deterministic machine the pair probe wraps: one output per
// request, to the local application.
type echo struct{}

func (echo) Step(in sm.Input) []sm.Output {
	if in.Kind != "req" {
		return nil
	}
	return []sm.Output{{Kind: "resp", To: []string{sm.LocalDelivery}, Payload: in.Payload}}
}

// probePair runs one fail-signal pair around an echo machine on a
// zero-latency simulated network: a signed client request goes in, the
// pair orders, compares and counter-signs, and a receiver accepts the
// double-signed output.
func probePair(scale int, out map[string]float64) error {
	net := netsim.New(clock.NewReal())
	defer net.Close()
	dir, keys := failsignal.NewDirectory(), sig.NewDirectory()

	var accepted atomic.Int64
	got := make(chan struct{}, 1<<16) // holds every output of the largest burst below
	rc := failsignal.NewReceiver(dir, keys, func(string, sm.Output) {
		accepted.Add(1)
		got <- struct{}{}
	}, func(string) {})
	dir.RegisterPlain("app", "app")
	net.Register("app", rc.Handle)

	pair, err := failsignal.NewPair(failsignal.PairConfig{
		Name: "p", NewMachine: func() sm.Machine { return echo{} },
		Net: net, Clock: clock.NewReal(), Dir: dir, Keys: keys,
		Delta: 150 * time.Millisecond, LocalName: "app",
	})
	if err != nil {
		return fmt.Errorf("pair probe: %w", err)
	}
	defer pair.Close()

	signer := sig.NewHMACSigner("client", []byte("probe-client"))
	if err := keys.RegisterSigner(signer); err != nil {
		return fmt.Errorf("pair probe: %w", err)
	}
	dir.RegisterPlain("client", "client")
	net.Register("client", func(transport.Message) {})
	client := failsignal.NewClient("client", "client", signer, net, dir)

	body := make([]byte, 16)
	var failed error
	await := func(n int) {
		for ; n > 0 && failed == nil; n-- {
			select {
			case <-got:
			case <-time.After(probeWait):
				failed = fmt.Errorf("pair probe: no double-signed output within %v (pair failed: %v)", probeWait, pair.Failed())
			}
		}
	}
	round := func() {
		if err := client.Send("p", "req", body); err != nil && failed == nil {
			failed = fmt.Errorf("pair probe: %w", err)
		}
		await(1)
	}
	round()
	sentBefore := net.Stats().Sent
	rounds := iterations(300, scale)
	out["core.pair_round_us"] = perOp(rounds, round) / 1e3
	out["core.pair_msgs_per_round"] = float64(net.Stats().Sent-sentBefore) / float64(rounds*probeRepeats)

	burst := iterations(2000, scale)
	var rates []float64
	for rep := 0; rep < probeRepeats && failed == nil; rep++ {
		start := time.Now()
		for i := 0; i < burst; i++ {
			if err := client.Send("p", "req", body); err != nil {
				return fmt.Errorf("pair probe: %w", err)
			}
		}
		await(burst)
		rates = append(rates, float64(burst)/time.Since(start).Seconds())
	}
	out["core.pair_rounds_per_s"] = median(rates)
	if failed == nil && pair.Failed() {
		failed = fmt.Errorf("pair probe: the pair fail-signalled")
	}
	return failed
}

type countingServant struct{ calls chan struct{} }

func (s countingServant) Invoke(string, orb.Any) (orb.Any, error) {
	s.calls <- struct{}{}
	return orb.Any{}, nil
}

func probeORB(scale int, out map[string]float64) error {
	net := netsim.New(clock.NewReal())
	defer net.Close()
	o, err := orb.New(orb.Config{Addr: "node", Net: net, Naming: orb.NewNaming()})
	if err != nil {
		return fmt.Errorf("orb probe: %w", err)
	}
	defer o.Close()
	srv := countingServant{calls: make(chan struct{}, 1)}
	o.Register("obj", srv)
	arg := orb.BytesAny(make([]byte, 16))
	var failed error
	out["orb.oneway_us"] = perOp(iterations(2000, scale), func() {
		if err := o.OneWay("caller", "obj", "m", arg); err != nil && failed == nil {
			failed = fmt.Errorf("orb probe: %w", err)
			return
		}
		select {
		case <-srv.calls:
		case <-time.After(probeWait):
			failed = fmt.Errorf("orb probe: one-way call never reached the servant")
		}
	}) / 1e3
	return failed
}

// pingPong measures a transport from outside: one message at a time
// (send → handler, nanoseconds) and bursts (messages per second).
func pingPong(tr transport.Transport, size, singles, burst int, fanout int) (latencyNs, perSecond float64, err error) {
	got := make(chan struct{}, burst) // holds a whole burst, so handlers never block
	dsts := make([]transport.Addr, fanout)
	for i := range dsts {
		dsts[i] = transport.Addr(fmt.Sprintf("probe/dst%d", i))
		tr.Register(dsts[i], func(transport.Message) { got <- struct{}{} })
	}
	tr.Register("probe/src", func(transport.Message) {})
	payload := make([]byte, size)
	await := func(n int) {
		for ; n > 0 && err == nil; n-- {
			select {
			case <-got:
			case <-time.After(probeWait):
				err = fmt.Errorf("transport probe: message not delivered within %v", probeWait)
			}
		}
	}
	send := func(i int) {
		if e := tr.Send("probe/src", dsts[i%fanout], "probe", payload); e != nil && err == nil {
			err = fmt.Errorf("transport probe: %w", e)
		}
	}
	send(0)
	await(1)
	latencyNs = perOp(singles, func() { send(0); await(1) })
	var rates []float64
	for rep := 0; rep < probeRepeats && err == nil; rep++ {
		start := time.Now()
		for i := 0; i < burst; i++ {
			send(i)
		}
		await(burst)
		rates = append(rates, float64(burst)/time.Since(start).Seconds())
	}
	return latencyNs, median(rates), err
}

func probeNetsim(scale int, out map[string]float64) error {
	net := netsim.New(clock.NewReal())
	defer net.Close()
	lat, rate, err := pingPong(net, 16, iterations(2000, scale), iterations(20000, scale), 10)
	out["netsim.send_to_handler_us"] = lat / 1e3
	out["netsim.fanout_msgs_per_s"] = rate
	return err
}

func probeTCP(scale int, out map[string]float64) error {
	tr, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		return fmt.Errorf("tcp probe: %w", err)
	}
	defer tr.Close()
	lat, rate, err := pingPong(tr, 16, iterations(1000, scale), iterations(20000, scale), 1)
	if err != nil {
		return err
	}
	out["tcpnet.send_to_handler_us_16"] = lat / 1e3
	out["tcpnet.msgs_per_s_16"] = rate
	_, rate, err = pingPong(tr, 8<<10, 1, iterations(4000, scale), 1)
	out["tcpnet.mb_per_s_8k"] = rate * (8 << 10) / 1e6
	return err
}
