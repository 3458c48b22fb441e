package tcpnet

import (
	"encoding/binary"
	"net"
	"sync"
	"time"
)

// maxQueuedFrames bounds one peer's outbound queue: past it, new frames
// are dropped (and counted) rather than growing memory without bound
// while an endpoint is unreachable or reading too slowly. The bound is
// deliberately generous — a whole benchmark burst fits — because every
// drop costs a protocol-level resend round trip; the dial backoff
// already keeps an unreachable endpoint's queue draining (by dropping)
// faster than dials can stall it.
const maxQueuedFrames = 1 << 17

// redialBackoff is how long a peer waits after a failed dial before
// trying again. Without it an unreachable endpoint costs the writer up to
// two dial timeouts per queued frame, draining at a fraction of a frame
// per second while the queue piles up.
const redialBackoff = time.Second

// wireFrame is one queued message as the vectored write sees it: head is
// the frame minus its payload (its seq stamped in place at enqueue), body
// the sender's own payload, queued by reference. The two are one unit of
// recovery: a frame is written only when every byte of both went out.
type wireFrame struct {
	head, body []byte
}

func (f wireFrame) size() int64 { return int64(len(f.head) + len(f.body)) }

// peer owns one outbound connection to a remote endpoint: a FIFO frame
// queue drained by a single writer goroutine over one lazily-dialed TCP
// connection. Serializing each link through one writer plus TCP's
// in-order bytes is what gives tcpnet per-link FIFO delivery.
type peer struct {
	t        *Transport
	hostport string

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []wireFrame
	seq      uint64 // last sequence number stamped, guarded by mu
	closed   bool
	nextDial time.Time // dials suppressed until then, guarded by mu

	conn net.Conn // writer-goroutine private once dialed
}

func newPeer(t *Transport, hostport string) *peer {
	p := &peer{t: t, hostport: hostport}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// enqueue appends one frame — head and the payload it frames — and never
// blocks on the network. The frame's sequence number is stamped here,
// under the queue lock, so seq order equals wire order: the receiver
// relies on that to discard frames replayed out of order across a
// reconnect.
func (p *peer) enqueue(head, payload []byte) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	if len(p.queue) >= maxQueuedFrames {
		p.mu.Unlock()
		p.t.dropped.Add(1) // endpoint unreachable or drowning: shed load
		return
	}
	p.seq++
	binary.BigEndian.PutUint64(head[seqOffset:], p.seq)
	p.queue = append(p.queue, wireFrame{head: head, body: payload})
	p.mu.Unlock()
	p.cond.Signal()
}

// stop wakes the writer for shutdown and severs the connection so a
// blocked write returns.
func (p *peer) stop() {
	p.mu.Lock()
	p.closed = true
	conn := p.conn
	p.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	p.cond.Broadcast()
}

// run is the writer loop: drain queued frames in order, dialing (and
// re-dialing after a failure) on demand. A whole drained batch goes to
// the kernel as one vectored write (writev via net.Buffers) instead of
// one syscall per frame: under the FS protocol's fan-out bursts the
// per-frame discipline meant thousands of 1 KiB segments per
// millisecond, which saturated the connection and let TCP flow control
// freeze it in ~200 ms quanta — the round-boundary wedge's transport
// half. Frames that cannot be written even after one fresh redial are
// dropped and counted; the layers above already tolerate the
// asynchronous network's losses via resends.
func (p *peer) run() {
	defer p.t.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		batch := p.queue
		p.queue = nil
		p.mu.Unlock()

		if dropped := p.writeBatch(batch); dropped > 0 {
			p.t.dropped.Add(uint64(dropped))
		}
	}
}

// writeBatch writes the frames in one vectored write per attempt,
// reconnecting on failure. The retry budget is two consecutive
// attempts WITHOUT progress — an attempt that lands at least one frame
// resets it — so a connection flapping during a large drain keeps its
// per-frame resilience (the old one-write-per-frame loop redialed per
// frame) instead of shedding the whole remainder on the second break.
// The return value is how many messages (frames) were dropped. Recovery is
// frame-granular: a frame the broken connection accepted only partially —
// its head but not all of its body included — is resent whole on the
// fresh one; its receiver died with the connection, so no duplicate can
// reach a live reader (and the per-link sequence watermark would discard
// one anyway).
func (p *peer) writeBatch(batch []wireFrame) int {
	redial := false
	for noProgress := 0; len(batch) > 0 && noProgress < 2; noProgress++ {
		conn := p.ensureConn(redial)
		redial = true
		if conn == nil {
			continue
		}
		bufs := make(net.Buffers, 0, 2*len(batch))
		for _, f := range batch {
			bufs = append(bufs, f.head)
			if len(f.body) > 0 {
				bufs = append(bufs, f.body)
			}
		}
		n, err := bufs.WriteTo(conn)
		if err == nil {
			return 0
		}
		// Trim the fully-written frames off the retry batch.
		for len(batch) > 0 && batch[0].size() <= n {
			n -= batch[0].size()
			batch = batch[1:]
			noProgress = -1
		}
		p.dropConn(conn)
	}
	return len(batch)
}

// ensureConn returns the live connection, dialing if absent. fresh forces
// a redial even if a connection exists (it just failed). Dials are
// suppressed for redialBackoff after a failure so an unreachable endpoint
// sheds its queue quickly instead of serializing dial timeouts.
func (p *peer) ensureConn(fresh bool) net.Conn {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	conn := p.conn
	backingOff := p.t.clk.Now().Before(p.nextDial)
	p.mu.Unlock()
	if conn != nil && !fresh {
		return conn
	}
	if conn != nil {
		p.dropConn(conn)
	}
	if backingOff {
		return nil
	}
	c, err := net.DialTimeout("tcp", p.hostport, dialTimeout)
	if err != nil {
		p.mu.Lock()
		p.nextDial = p.t.clk.Now().Add(redialBackoff)
		p.mu.Unlock()
		return nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return nil
	}
	p.conn = c
	p.nextDial = time.Time{}
	p.mu.Unlock()
	return c
}

// dropConn closes and forgets a failed connection.
func (p *peer) dropConn(conn net.Conn) {
	conn.Close()
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
	}
	p.mu.Unlock()
}
