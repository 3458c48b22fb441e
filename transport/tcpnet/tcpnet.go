// Package tcpnet is the real-network backend of the transport plane: TCP
// sockets with length-prefixed binary framing. It is what lets the
// protocol stack — written against package transport and tested for years
// over the in-process simulator — run at hardware speed, across processes
// and across machines, without touching a line of protocol code.
//
// # Model
//
// One Transport instance represents one OS process: it owns one listening
// socket and serves every transport.Addr registered on it. Address
// resolution is explicit: an AddrBook maps logical addresses to host:port
// endpoints. Within one process (tests, single-host deployments) the book
// is shared between Transport instances and registration keeps it current
// automatically; across processes each side seeds its book with the
// remote endpoints it must reach (see AddrBook.LoadPeers).
//
// # Ordering and reconnection
//
// All traffic from this process on one (From,To) link is serialized
// through one of connsPerPeer writer goroutines and TCP connections to the
// link's endpoint, so per-link FIFO — the ordering the Order protocol of
// internal/core depends on — follows from TCP's in-order bytes.
// Connections are dialed lazily and re-dialed on send after a failure.
// Around a reconnect the receiver may briefly read the broken and the
// fresh connection concurrently; every frame carries the sender's
// incarnation epoch and a sequence number stamped in enqueue order, and
// the receiver drops anything at or below the last seq it delivered for
// that sender incarnation, so within one incarnation the race degrades to
// message loss (the asynchronous-network model the paper assumes makes
// the layers above resilient to loss) — never to reordering or
// duplication.
// A restarted sender carries a fresh epoch with its own watermark, so
// sequence numbers legitimately restarting are never mistaken for
// replays; ordering ACROSS incarnations is deliberately not promised (a
// dead incarnation's last buffered frames may surface after the new
// incarnation's first ones — indistinguishable, without a handshake,
// from ordinary network delay, and the group layers above resolve
// restarts through view changes, not wire order).
//
// Fault injection is deliberately not implemented: a real network cannot
// fake partitions. Callers discover that via the transport capability
// interfaces — tcpnet implements transport.StatsSource but not
// transport.FaultInjector.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/codec"
	"fsnewtop/transport"
)

// AddrBook maps logical transport addresses to TCP host:port endpoints.
// It is safe for concurrent use; the zero value is not ready — use
// NewAddrBook. One book is shared by every Transport of a deployment that
// lives in the same process.
type AddrBook struct {
	mu sync.RWMutex
	m  map[transport.Addr]string
}

// NewAddrBook returns an empty address book.
func NewAddrBook() *AddrBook {
	return &AddrBook{m: make(map[transport.Addr]string)}
}

// Set records that addr is served by the process listening at hostport.
func (b *AddrBook) Set(addr transport.Addr, hostport string) {
	b.mu.Lock()
	b.m[addr] = hostport
	b.mu.Unlock()
}

// SetAll records a batch of addresses served by hostport (deployment
// bootstrap: seed the remote half of the book before starting traffic).
func (b *AddrBook) SetAll(hostport string, addrs ...transport.Addr) {
	b.mu.Lock()
	for _, a := range addrs {
		b.m[a] = hostport
	}
	b.mu.Unlock()
}

// Lookup resolves addr to its endpoint.
func (b *AddrBook) Lookup(addr transport.Addr) (string, bool) {
	b.mu.RLock()
	hp, ok := b.m[addr]
	b.mu.RUnlock()
	return hp, ok
}

// deleteOwned removes addr only while it still resolves to hostport, so a
// process deregistering a name cannot clobber a re-registration by
// another process.
func (b *AddrBook) deleteOwned(addr transport.Addr, hostport string) {
	b.mu.Lock()
	if b.m[addr] == hostport {
		delete(b.m, addr)
	}
	b.mu.Unlock()
}

// Config configures one process's Transport.
type Config struct {
	// Listen is the TCP listen address. Empty selects an ephemeral
	// loopback port ("127.0.0.1:0") — the right default for tests and
	// single-host deployments.
	Listen string
	// Advertise is the endpoint other processes dial to reach addresses
	// registered here. Empty selects the actual listen address (correct
	// unless this process sits behind NAT or binds 0.0.0.0).
	Advertise string
	// Book is the deployment's address book. Nil creates a private book
	// (single-Transport loopback deployments).
	Book *AddrBook
}

const (
	// dialTimeout bounds each connection attempt.
	dialTimeout = 2 * time.Second
	// maxFrame bounds frame sizes, sent and accepted.
	maxFrame = 16 << 20
	// connsPerPeer is how many parallel TCP connections (each with its own
	// writer goroutine) a process opens to one remote endpoint. Links are
	// hashed onto connections by (From,To), so per-link FIFO is untouched
	// while one congested stream can no longer head-of-line block every
	// other link to that endpoint — the failure mode behind the
	// FS-over-TCP round-boundary wedge: a single shared connection,
	// saturated by the protocol's fan-out bursts, froze in TCP flow-control
	// quanta (~200 ms on Linux loopback) and the pair's "synchronous"
	// fwd/single streams froze with it.
	connsPerPeer = 4
)

// Transport is a TCP-backed transport.Transport for one process.
type Transport struct {
	book      *AddrBook
	advertise string
	ln        net.Listener
	// conns and maxFrame are connsPerPeer and maxFrame outside tests,
	// which narrow them through newTransport.
	conns    int
	maxFrame int
	// clk is the wall clock, for redial backoff and the incarnation epoch.
	clk clock.Clock
	// epoch identifies this Transport incarnation on the wire (its start
	// time): receivers use it to tell a restarted sender (sequence
	// numbers legitimately restarting) from a reconnect replay.
	epoch uint64

	mu       sync.Mutex
	handlers map[transport.Addr]transport.Handler
	peers    map[peerKey]*peer
	inbound  map[net.Conn]struct{}

	// links holds one inbound dispatch queue per (From,To) link. Each
	// queue delivers on its own goroutine, so per-link FIFO is preserved
	// while one slow or briefly-blocking handler cannot stall unrelated
	// links — the same isolation netsim's sharded dispatcher gives, and
	// what keeps a single-process multi-member deployment (where every
	// link funnels through one readLoop) free of cross-link head-of-line
	// wedges. The queue also carries the link's replay watermarks: frames
	// carry a sequence number stamped in the sender's enqueue order, and
	// anything at or below the last delivered seq for its incarnation is
	// dropped as stale, so the reconnect race (broken and fresh
	// connections read concurrently) degrades to loss, never reorder or
	// duplication.
	linksMu sync.Mutex
	links   map[linkKey]*linkQueue

	closed atomic.Bool
	wg     sync.WaitGroup

	sent, delivered, dropped, bytes atomic.Uint64
}

var (
	_ transport.Transport    = (*Transport)(nil)
	_ transport.StatsSource  = (*Transport)(nil)
	_ transport.GatherSender = (*Transport)(nil)
)

// ErrClosed is returned when sending on a closed transport. It wraps
// transport.ErrClosed.
var ErrClosed = fmt.Errorf("tcpnet: %w", transport.ErrClosed)

// ErrUnknownAddr is returned when the destination does not resolve in the
// address book. It wraps transport.ErrUnknownAddr.
var ErrUnknownAddr = fmt.Errorf("tcpnet: %w", transport.ErrUnknownAddr)

// epochCounter disambiguates Transport incarnations created at the same
// clock reading — two instants a manual clock cannot tell apart must
// still mint distinct epochs, or a restarted sender's frames would be
// dropped as replays of its previous life.
var epochCounter atomic.Uint64

// New starts a Transport: it binds the listener and begins accepting.
func New(cfg Config) (*Transport, error) { return newTransport(cfg, connsPerPeer, maxFrame) }

// newTransport is New with the connection count per peer and the frame
// bound as parameters.
func newTransport(cfg Config, conns, frameBound int) (*Transport, error) {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", cfg.Listen, err)
	}
	clk := clock.NewReal()
	t := &Transport{
		book:      cfg.Book,
		advertise: cfg.Advertise,
		ln:        ln,
		conns:     conns,
		maxFrame:  frameBound,
		clk:       clk,
		epoch:     uint64(clk.Now().UnixNano()) + epochCounter.Add(1),
		handlers:  make(map[transport.Addr]transport.Handler),
		peers:     make(map[peerKey]*peer),
		inbound:   make(map[net.Conn]struct{}),
		links:     make(map[linkKey]*linkQueue),
	}
	if t.book == nil {
		t.book = NewAddrBook()
	}
	if t.advertise == "" {
		t.advertise = ln.Addr().String()
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Endpoint returns the host:port other processes dial to reach this
// Transport (the advertise address).
func (t *Transport) Endpoint() string { return t.advertise }

// Book returns the transport's address book, so a deployment can seed
// remote endpoints after construction (e.g. AddrBook.LoadPeers on a
// manifest learned later than New — the deploy plane's two-phase
// bootstrap: listen first, learn the cluster's placement second).
func (t *Transport) Book() *AddrBook { return t.book }

// Register implements transport.Transport: it attaches the handler and
// publishes addr → this process in the address book. Registering on a
// closed transport is a no-op: publishing a dead listener into a shared
// book would make remote Sends resolve, dial, fail and drop silently
// instead of failing loudly with ErrUnknownAddr.
func (t *Transport) Register(addr transport.Addr, h transport.Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return
	}
	t.handlers[addr] = h
	// Published under t.mu so a racing Close (which snapshots handlers
	// under the same lock before withdrawing them) can never leave this
	// entry behind.
	t.book.Set(addr, t.advertise)
}

// Deregister implements transport.Transport. The address book entry is
// removed only if it still points at this process, and the address's
// inbound link queues (goroutine + replay watermarks each) are reaped so
// long-lived processes with address churn don't accumulate them; a frame
// arriving later recreates the queue and is dropped at the no-handler
// check.
func (t *Transport) Deregister(addr transport.Addr) {
	t.mu.Lock()
	delete(t.handlers, addr)
	t.mu.Unlock()
	t.book.deleteOwned(addr, t.advertise)
	t.linksMu.Lock()
	for k, q := range t.links {
		if k.to == addr {
			q.stop()
			delete(t.links, k)
		}
	}
	t.linksMu.Unlock()
}

// Send implements transport.Transport: resolve, build the frame header,
// and hand header and payload to the destination endpoint's writer. It
// never blocks on the network. The payload is queued by reference — Send
// owns it from here on — and reaches the socket in the writer's vectored
// write without ever being copied into a frame.
func (t *Transport) Send(from, to transport.Addr, kind string, payload []byte) error {
	return t.send(from, to, kind, payload, nil)
}

// SendGather implements transport.GatherSender: Send for a payload in
// pieces, each queued by reference and written from where it lies — the
// writer appends them to the iovecs of its vectored write — so the
// payload is never flattened on this side. The frame on the wire is the
// one Send would have written for g.Flat().
func (t *Transport) SendGather(from, to transport.Addr, kind string, g transport.Gather) error {
	return t.send(from, to, kind, nil, g)
}

// send queues one frame whose payload is payload, or pieces when not nil.
func (t *Transport) send(from, to transport.Addr, kind string, payload []byte, pieces transport.Gather) error {
	if t.closed.Load() {
		return ErrClosed
	}
	hostport, ok := t.book.Lookup(to)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAddr, to)
	}
	n := len(payload)
	if pieces != nil {
		n = pieces.Len()
	}
	// Oversized frames must fail loudly here, before anything is queued:
	// written to the wire they would make the receiver sever the whole
	// connection, silently losing every unrelated message buffered behind
	// them.
	if size := frameSize(from, to, kind, n); size > t.maxFrame {
		return fmt.Errorf("tcpnet: frame of %d bytes to %q exceeds the %d-byte frame bound", size, to, t.maxFrame)
	}
	p := t.peerFor(hostport, linkShard(from, to, t.conns))
	if p == nil { // Close won the race after the check above
		return ErrClosed
	}
	t.sent.Add(1)
	t.bytes.Add(uint64(n))
	p.enqueue(t.frameHead(from, to, kind, n), payload, pieces)
	return nil
}

// FramesSent returns how many wire frames were sent. Every message is its
// own frame, so it equals messages sent (Stats().Sent); it stays for
// callers that report frames beside messages.
func (t *Transport) FramesSent() uint64 { return t.sent.Load() }

// Stats implements transport.StatsSource.
func (t *Transport) Stats() transport.Stats {
	return transport.Stats{
		Sent:      t.sent.Load(),
		Delivered: t.delivered.Load(),
		Dropped:   t.dropped.Load(),
		Bytes:     t.bytes.Load(),
	}
}

// Close implements transport.Transport: it stops the listener, all writer
// goroutines and all inbound readers, waits for them, and withdraws this
// process's addresses from the shared book so other processes get
// ErrUnknownAddr instead of queueing for a dead endpoint.
func (t *Transport) Close() {
	if t.closed.Swap(true) {
		return
	}
	t.ln.Close()
	t.mu.Lock()
	for _, p := range t.peers {
		p.stop()
	}
	for c := range t.inbound {
		c.Close()
	}
	addrs := make([]transport.Addr, 0, len(t.handlers))
	for a := range t.handlers {
		addrs = append(addrs, a)
	}
	t.mu.Unlock()
	t.linksMu.Lock()
	for _, q := range t.links {
		q.stop()
	}
	t.linksMu.Unlock()
	for _, a := range addrs {
		t.book.deleteOwned(a, t.advertise)
	}
	t.wg.Wait()
}

// peerKey identifies one writer connection to a remote endpoint: links
// are hashed across the transport's conns shards.
type peerKey struct {
	hostport string
	shard    int
}

// linkShard maps one (From,To) link onto a connection shard. The hash is
// FNV-1a over both addresses: deterministic, so a link always rides the
// same connection and its FIFO order follows from TCP byte order.
func linkShard(from, to transport.Addr, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(from); i++ {
		h = (h ^ uint32(from[i])) * 16777619
	}
	h = (h ^ 0) * 16777619 // separator so ("ab","c") != ("a","bc")
	for i := 0; i < len(to); i++ {
		h = (h ^ uint32(to[i])) * 16777619
	}
	return int(h % uint32(shards))
}

// peerFor returns (creating if needed) the writer for one connection
// shard of a remote endpoint, or nil if the transport closed. The closed
// re-check under t.mu keeps a racing Send from spawning a writer
// goroutine after Close has already stopped every peer — that writer
// would never be stopped and Close's wg.Wait would hang.
func (t *Transport) peerFor(hostport string, shard int) *peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return nil
	}
	k := peerKey{hostport, shard}
	p := t.peers[k]
	if p == nil {
		p = newPeer(t, hostport)
		t.peers[k] = p
		t.wg.Add(1)
		go p.run()
	}
	return p
}

// acceptLoop admits inbound connections until the listener closes.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes frames off one inbound connection and pushes each onto
// its (From,To) link's dispatch queue, whose watermarks keep the link FIFO
// even when a sender's broken and fresh connections are read concurrently.
// It never runs a handler itself: one connection carries many links, and
// the link queues' goroutines are what keep them apart (DESIGN.md,
// "Transport plane").
func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	// Buffered, so a length prefix — and a run of small frames — is not a
	// read syscall each; a frame body is still its own allocation, which is
	// what lets handlers keep the payloads that alias it.
	br := bufio.NewReaderSize(conn, readBufferSize)
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if int64(n) > int64(t.maxFrame) { // int64: int(n) can go negative on 32-bit
			return // protocol violation: drop the connection
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		epoch, seq, msg, err := decodeFrame(body)
		if err != nil {
			return
		}
		t.linkFor(msg.From, msg.To).push(inFrame{epoch: epoch, seq: seq, msg: msg})
	}
}

// linkKey identifies one (From,To) direction.
type linkKey struct{ from, to transport.Addr }

// inFrame is one decoded inbound frame awaiting dispatch.
type inFrame struct {
	epoch, seq uint64
	msg        transport.Message
}

// linkQueue dispatches one link's inbound frames, in push order, on a
// dedicated goroutine. The epoch distinguishes sender incarnations: each
// keeps its own sequence watermark, so a restarted process (fresh epoch,
// sequence numbers restarting at 1) is never mistaken for a replay —
// regardless of whether its new epoch compares higher or lower than the
// old one, so no clock monotonicity across restarts is assumed. Replay
// suppression only ever needs to hold within one incarnation: that is the
// only place a reconnect can duplicate or reorder frames.
type linkQueue struct {
	t      *Transport
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []inFrame
	closed bool
	last   map[uint64]uint64 // incarnation epoch → highest seq delivered
}

// linkFor returns (creating if needed) the dispatch queue for one link,
// or an already-closed queue when the transport has shut down.
func (t *Transport) linkFor(from, to transport.Addr) *linkQueue {
	k := linkKey{from, to}
	t.linksMu.Lock()
	defer t.linksMu.Unlock()
	q := t.links[k]
	if q == nil {
		q = &linkQueue{t: t, last: make(map[uint64]uint64)}
		q.cond = sync.NewCond(&q.mu)
		if t.closed.Load() {
			q.closed = true
		} else {
			t.links[k] = q
			t.wg.Add(1)
			go q.run()
		}
	}
	return q
}

// push appends one frame for dispatch; it never blocks.
func (q *linkQueue) push(f inFrame) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.t.dropped.Add(1) // link reaped or transport closing
		return
	}
	q.queue = append(q.queue, f)
	q.mu.Unlock()
	q.cond.Signal()
}

// stop wakes the dispatcher for shutdown; pending frames are abandoned.
func (q *linkQueue) stop() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// run delivers the link's frames in order. Handlers run here — one
// goroutine per link — so per-link FIFO holds while a handler blocking on
// another link's progress cannot wedge the whole transport.
func (q *linkQueue) run() {
	defer q.t.wg.Done()
	for {
		q.mu.Lock()
		for len(q.queue) == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.closed {
			q.mu.Unlock()
			return
		}
		batch := q.queue
		q.queue = nil
		q.mu.Unlock()

		for _, f := range batch {
			q.deliver(f)
		}
	}
}

// maxEpochWatermarks caps one link's per-incarnation watermark map: a
// frequently restarting sender would otherwise grow it by one entry per
// restart. Evicting an old incarnation's watermark risks re-delivering
// one of its replayed frames only if that replay surfaces after two
// further restarts — far outside any reconnect race window.
const maxEpochWatermarks = 4

// deliver dispatches one frame through the incarnation watermark.
func (q *linkQueue) deliver(f inFrame) {
	if f.seq <= q.last[f.epoch] { // dispatcher-private: no lock needed
		q.t.dropped.Add(1) // stale replay from a superseded connection
		return
	}
	if len(q.last) >= maxEpochWatermarks {
		for e := range q.last {
			if e != f.epoch {
				delete(q.last, e)
				break
			}
		}
	}
	q.last[f.epoch] = f.seq
	t := q.t
	t.mu.Lock()
	h := t.handlers[f.msg.To]
	t.mu.Unlock()
	if h == nil {
		t.dropped.Add(1) // deregistered (or never here): drop at delivery
		return
	}
	t.delivered.Add(1)
	h(f.msg)
}

// readBufferSize is each inbound connection's read buffer: several
// 8 KiB frames, or a few hundred acknowledgements, per syscall.
const readBufferSize = 64 << 10

// Frame layout: u32 length prefix (bytes after itself), u64 sender
// incarnation epoch, u64 sequence number (stamped by peer.enqueue — zero
// until then), then the codec body.
const seqOffset = 12

// frameSize returns the frame body size (everything after the length
// prefix) without encoding anything: epoch + seq + three u32-prefixed
// strings + the u32-prefixed payload of n bytes.
func frameSize(from, to transport.Addr, kind string, n int) int {
	return 8 + 8 + 4 + len(from) + 4 + len(to) + 4 + len(kind) + 4 + n
}

// frameHead renders everything of one message's frame that is not its
// payload of n bytes: the length prefix (which counts the payload), the
// header, and the payload's own length prefix. Head followed by payload is
// the frame.
func (t *Transport) frameHead(from, to transport.Addr, kind string, n int) []byte {
	size := frameSize(from, to, kind, n)
	w := codec.NewWriter(4 + size - n)
	w.U32(uint32(size))
	w.U64(t.epoch) // sender incarnation
	w.U64(0)       // sequence number, patched at enqueue
	w.String(string(from))
	w.String(string(to))
	w.String(kind)
	w.U32(uint32(n))
	return w.Bytes()
}

// decodeFrame parses one frame body (length prefix already consumed). The
// payload aliases body, which is freshly allocated per frame and never
// reused, so handlers may retain it — the same contract netsim gives.
func decodeFrame(body []byte) (epoch, seq uint64, msg transport.Message, err error) {
	r := codec.NewReader(body)
	epoch = r.U64()
	seq = r.U64()
	msg = transport.Message{
		From: transport.Addr(r.String()),
		To:   transport.Addr(r.String()),
		Kind: r.String(),
	}
	msg.Payload = r.Bytes32()
	if err := r.Finish(); err != nil {
		return 0, 0, transport.Message{}, fmt.Errorf("tcpnet: decoding frame: %w", err)
	}
	return epoch, seq, msg, nil
}
