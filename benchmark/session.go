package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fsnewtop/cluster"
	"fsnewtop/internal/clock"
	"fsnewtop/transport"
	"fsnewtop/transport/netsim"
	"fsnewtop/transport/tcpnet"
)

const (
	groupName = "bench"
	// linkLatency is the one-way delay injected on every simulated link,
	// inter-member and pair sync link alike (the cluster default).
	linkLatency = 200 * time.Microsecond
	// settleTimeout is how long after the last send a multicast may take
	// to reach every live member before it counts as failed.
	settleTimeout = 5 * time.Second
	// bringUpTimeout bounds the probe multicasts that end bring-up.
	bringUpTimeout = 10 * time.Second
	// headerBytes is the payload prefix the driver decodes: origin, seq.
	headerBytes = 8
	// spanMulticasts caps how many multicasts per origin keep their
	// per-member delivery times for the span file.
	spanMulticasts = 200
)

// rec is the driver's record of one multicast. Times are nanoseconds
// since the session epoch; zero means "not yet".
type rec struct {
	due, sent  int64 // when the send was due, when Multicast was called
	submitNs   int64 // time spent inside Member.Multicast
	own        int64 // the sender's own delivery
	first      int64 // earliest delivery at any member
	last       int64 // latest delivery at any member
	n          int32 // members, other than the session's victim, that have delivered it
	slot       bool  // holds a closed-loop slot, which the sender's own delivery frees
	refused    bool  // Multicast returned an error
	deliveries []int64
}

type viewEvent struct {
	at   int64
	view cluster.View
}

type failEvent struct {
	at  int64
	src string
}

// member is one group member as the driver sees it: the handle, the
// records of what it sent, and what its drain goroutine observed.
type member struct {
	idx  int
	name string
	h    *cluster.Member

	mu      sync.Mutex // guards recs, spanned
	recs    []rec
	spanned int // records that keep per-member delivery times

	// Written only by this member's drain goroutine; read by others after
	// the drains have stopped.
	hash    uint64
	order   []uint64 // every delivery in order, as origin<<32 | seq
	corrupt int

	evMu  sync.Mutex // guards views, fails
	views []viewEvent
	fails []failEvent

	// firstPost is this member's first delivery of a multicast sent after
	// the fault injection (0 = none yet).
	firstPost atomic.Int64
}

// session is one running deployment plus the driver state around it.
type session struct {
	spec   spec
	epoch  time.Time
	filler []byte

	tr      transport.Transport
	closeTr func()
	tracer  *tracer
	c       *cluster.Cluster
	members []*member

	// bringUp is transport + cluster.New + JoinAll + one probe multicast
	// delivered everywhere.
	bringUp time.Duration

	// free carries closed-loop slots back to the pacer: a member index per
	// own delivery of a multicast that held one. Sized to hold every slot,
	// so drains never block on it.
	free chan int

	// victim is the member this session will fault (-1 = none), fixed at
	// bring-up so that deliveries can be counted over the survivors alone;
	// injectedAt is when the fault was injected (0 = not yet).
	victim     int
	injectedAt atomic.Int64

	// spanning is set while sends should keep per-member delivery times
	// for the span file (traced runs, measured window).
	spanning atomic.Bool

	stop     chan struct{}
	stopOnce sync.Once
	drains   sync.WaitGroup
}

func memberNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
	}
	return names
}

// openSession brings a deployment up: transport, cluster, group join, and
// one probe multicast delivered at every member. victim names the member
// the caller will fault later, or -1.
func openSession(sp spec, seed int64, traced bool, victim int) (*session, error) {
	start := time.Now()
	s := &session{
		spec:   sp,
		epoch:  start,
		victim: victim,
		stop:   make(chan struct{}),
		free:   make(chan int, sp.Members*sp.Outstanding),
	}
	s.filler = make([]byte, 64<<10+sp.PayloadBytes)
	rand.New(rand.NewSource(seed)).Read(s.filler)

	switch sp.Substrate {
	case "netsim":
		n := netsim.New(clock.NewReal(),
			netsim.WithDefaultProfile(transport.Profile{Latency: transport.Fixed(linkLatency)}),
			netsim.WithSeed(seed))
		s.tr, s.closeTr = n, n.Close
	case "tcp":
		t, err := tcpnet.New(tcpnet.Config{})
		if err != nil {
			return nil, fmt.Errorf("starting tcp transport: %w", err)
		}
		s.tr, s.closeTr = t, t.Close
	default:
		return nil, fmt.Errorf("unknown substrate %q", sp.Substrate)
	}
	if traced {
		s.tr, s.tracer = trace(s.tr, s.epoch)
	}

	names := memberNames(sp.Members)
	opts := []cluster.Option{cluster.WithMembers(names...), cluster.WithTransport(s.tr)}
	if sp.DeltaMs != 0 {
		opts = append(opts, cluster.WithDelta(time.Duration(sp.DeltaMs)*time.Millisecond))
	}
	if sp.System == "newtop" {
		// The paper eliminated false suspicions in its NewTOP runs.
		opts = append(opts, cluster.WithCrashTolerance(), cluster.WithPingSuspector(0, time.Hour))
	}
	c, err := cluster.New(opts...)
	if err != nil {
		s.closeTr()
		return nil, fmt.Errorf("cluster.New: %w", err)
	}
	s.c = c
	for i, name := range names {
		s.members = append(s.members, &member{idx: i, name: name, h: c.Member(name)})
	}
	for _, m := range s.members {
		s.drains.Add(1)
		go s.drain(m)
	}
	if err := c.JoinAll(groupName); err != nil {
		s.close()
		return nil, fmt.Errorf("JoinAll: %w", err)
	}
	// Ready means a probe multicast has reached every member. A probe that
	// is still missing somewhere after a second is followed by another:
	// tcpnet may lose what is sent while a connection is being dialed, and
	// the group layer only notices a lost message when a later one arrives.
	for ready := false; !ready; {
		s.send(0, s.now(), false)
		ready = s.waitSettled(time.Second)
		if failed := s.spuriousSignal(); failed != "" {
			s.close()
			return nil, fmt.Errorf("bring-up: pairs of %s fail-signalled", failed)
		}
		if !ready && time.Since(start) > bringUpTimeout {
			s.close()
			return nil, fmt.Errorf("bring-up: no probe multicast was delivered at every member within %v", bringUpTimeout)
		}
	}
	s.bringUp = time.Since(start)
	return s, nil
}

// stopDrains ends the drain goroutines and waits for them; what they
// wrote may be read freely afterwards.
func (s *session) stopDrains() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.drains.Wait()
	})
}

// close tears the deployment down.
func (s *session) close() {
	s.stopDrains()
	s.c.Close()
	s.closeTr()
}

func (s *session) now() int64 { return int64(time.Since(s.epoch)) }

// payload builds multicast seq of member idx: the header the drains
// decode, then seeded filler the drains check byte for byte.
func (s *session) payload(idx int, seq uint32) []byte {
	p := make([]byte, s.spec.PayloadBytes)
	binary.BigEndian.PutUint32(p[0:], uint32(idx))
	binary.BigEndian.PutUint32(p[4:], seq)
	copy(p[headerBytes:], s.fillerFor(idx, seq))
	return p
}

func (s *session) fillerFor(idx int, seq uint32) []byte {
	off := (int(seq)*31 + idx*977) % (64 << 10)
	return s.filler[off : off+s.spec.PayloadBytes-headerBytes]
}

// send issues member idx's next multicast, due at the given instant; slot
// says that it holds one of the member's closed-loop slots. A refused
// multicast is recorded and costs the member that slot: no fault-free run
// refuses one.
func (s *session) send(idx int, due int64, slot bool) {
	m := s.members[idx]
	sent := s.now()
	m.mu.Lock()
	seq := uint32(len(m.recs))
	r := rec{due: due, sent: sent, slot: slot}
	if s.spanning.Load() && m.spanned < spanMulticasts {
		r.deliveries = make([]int64, len(s.members))
		m.spanned++
	}
	m.recs = append(m.recs, r)
	m.mu.Unlock()

	p := s.payload(idx, seq)
	start := s.now()
	err := m.h.Multicast(groupName, cluster.TotalSym, p)
	took := s.now() - start

	m.mu.Lock()
	m.recs[seq].submitNs, m.recs[seq].refused = took, err != nil
	m.mu.Unlock()
}

// drain is member m's one goroutine: it blocks on the member's three
// streams, timestamps what arrives and folds it into the records.
func (s *session) drain(m *member) {
	defer s.drains.Done()
	for {
		select {
		case <-s.stop:
			return
		case d := <-m.h.Deliveries():
			s.onDelivery(m, d, s.now())
		case v := <-m.h.Views():
			m.evMu.Lock()
			m.views = append(m.views, viewEvent{at: s.now(), view: v})
			m.evMu.Unlock()
		case src := <-m.h.FailSignals():
			m.evMu.Lock()
			m.fails = append(m.fails, failEvent{at: s.now(), src: src})
			m.evMu.Unlock()
		}
	}
}

func (s *session) onDelivery(m *member, d cluster.Delivery, now int64) {
	if len(d.Payload) != s.spec.PayloadBytes {
		m.corrupt++
		return
	}
	idx := int(binary.BigEndian.Uint32(d.Payload[0:]))
	seq := binary.BigEndian.Uint32(d.Payload[4:])
	if idx >= len(s.members) || d.Origin != s.members[idx].name ||
		!bytes.Equal(d.Payload[headerBytes:], s.fillerFor(idx, seq)) {
		m.corrupt++
		return
	}
	id := uint64(idx)<<32 | uint64(seq)
	m.hash = (m.hash ^ id) * 1099511628211
	m.order = append(m.order, id)

	o := s.members[idx]
	o.mu.Lock()
	if int(seq) >= len(o.recs) {
		o.mu.Unlock()
		m.corrupt++
		return
	}
	r := &o.recs[seq]
	if m.idx != s.victim {
		r.n++
	}
	if r.first == 0 || now < r.first {
		r.first = now
	}
	if now > r.last {
		r.last = now
	}
	if idx == m.idx {
		r.own = now
	}
	if r.deliveries != nil {
		r.deliveries[m.idx] = now
	}
	sent, freed := r.sent, r.slot && idx == m.idx
	o.mu.Unlock()

	if freed {
		s.free <- idx
	}
	if inj := s.injectedAt.Load(); inj != 0 && sent > inj && m.firstPost.Load() == 0 {
		m.firstPost.Store(now)
	}
}

// live lists the members the session will not fault.
func (s *session) live() []*member {
	out := make([]*member, 0, len(s.members))
	for _, m := range s.members {
		if m.idx != s.victim {
			out = append(out, m)
		}
	}
	return out
}

// unsettled counts multicasts some live member has still to deliver. The
// victim's own multicasts are owed only once a survivor has delivered
// them: view synchrony lets the group drop what a failed sender left in
// flight, as long as every survivor drops it.
func (s *session) unsettled() int {
	need := int32(len(s.live()))
	pending := 0
	for _, m := range s.members {
		m.mu.Lock()
		for i := range m.recs {
			r := &m.recs[i]
			if r.refused || r.n >= need || (m.idx == s.victim && r.n == 0) {
				continue
			}
			pending++
		}
		m.mu.Unlock()
	}
	return pending
}

// waitSettled polls until every multicast has reached every live member,
// or the timeout passes, or a live member's pair fail-signals: nothing
// more will reach that one.
func (s *session) waitSettled(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for s.unsettled() > 0 {
		if time.Now().After(deadline) || s.spuriousSignal() != "" {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// spans renders the records that kept per-member delivery times: a root
// span per multicast (due → the sender's own delivery), a child for the
// time inside Member.Multicast, and a child per member for the way from
// the send to that member's delivery. The tracer's sampled send and
// handler spans follow.
func (s *session) spans() []span {
	var out []span
	for _, m := range s.members {
		m.mu.Lock()
		for seq := range m.recs {
			r := &m.recs[seq]
			if r.deliveries == nil || r.own == 0 {
				continue
			}
			id := fmt.Sprintf("%s/%d", m.name, seq)
			out = append(out,
				span{Name: "multicast", Layer: "driver", StartNs: r.due, EndNs: r.own, Multicast: id},
				span{Name: "submit", Layer: "cluster", StartNs: r.sent, EndNs: r.sent + r.submitNs, Parent: id, Multicast: id})
			for i, at := range r.deliveries {
				if at != 0 {
					out = append(out, span{Name: "deliver:" + s.members[i].name, Layer: "cluster", StartNs: r.sent, EndNs: at, Parent: id, Multicast: id})
				}
			}
		}
		m.mu.Unlock()
	}
	if s.tracer != nil {
		out = append(out, s.tracer.rawSpans()...)
	}
	return out
}
