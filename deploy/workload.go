package deploy

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fsnewtop/cluster"
	"fsnewtop/internal/clock"
)

// Workload is the paper's workload (Section 4) at one member: it
// multicasts spec.MsgsPerMember messages into spec.Group for symmetric
// total ordering at the regular interval from a start instant, and takes
// deliveries until every member's messages have arrived here. Ordering
// latency is send instant → own delivery, the delivery's At: the instant
// the NSO handed it over, however late the workload takes it. Every lane
// runs one per member and polls it in one observer pass on the run's clock
// (clock.Observe): bench.Run in process, a deploy worker on the wall clock.
type Workload struct {
	mem   *cluster.Member
	start time.Time
	sent  <-chan error // the sender's verdict (paceSends); nil once read
	stats WorkerStats
	last  time.Time // At of the latest delivery taken

	mu       sync.Mutex // guards sendTime between the sender and the taker
	sendTime map[int]time.Time
}

// StartWorkload arms mem's paced sends on clk, the first due at start; the
// caller then takes its deliveries with Poll. clk must read as mem's clock
// does, which stamps the deliveries. Closing stop ends the sends.
func StartWorkload(clk clock.Clock, start time.Time, mem *cluster.Member, spec RunSpec, members int, stop <-chan struct{}) *Workload {
	w := &Workload{
		mem:   mem,
		start: start,
		stats: WorkerStats{
			Member:    mem.Name(),
			Expected:  members * spec.MsgsPerMember,
			LatencyNS: make([]int64, 0, spec.MsgsPerMember),
		},
		sendTime: make(map[int]time.Time, spec.MsgsPerMember),
	}
	w.sent = paceSends(clk, start, spec.MsgsPerMember, spec.SendInterval, stop, func(k int) error {
		seq := k + 1
		w.mu.Lock()
		w.sendTime[seq] = clk.Now()
		w.mu.Unlock()
		if err := mem.Multicast(spec.Group, cluster.TotalSym, encodeSeq(seq, spec.MsgSize)); err != nil {
			return fmt.Errorf("multicast seq %d: %w", seq, err)
		}
		return nil
	})
	return w
}

// ended reports whether a multicast failed, for the run cannot complete
// without its messages, or every expected delivery is taken and the
// sender has returned.
func (w *Workload) ended() bool {
	return w.sent == nil && (w.stats.Delivered >= w.stats.Expected || w.stats.SendError != "")
}

// take records one delivery and counts it in delivered, the count both
// stall watchdogs read (bench.Run's directly, the controller's through
// progress messages).
func (w *Workload) take(d cluster.Delivery, delivered *atomic.Int64) {
	w.stats.Delivered++
	delivered.Add(1)
	seq := decodeSeq(d.Payload)
	w.stats.Order = append(w.stats.Order, OrderEntry{Origin: d.Origin, Seq: seq})
	w.last = d.At
	if d.Origin != w.stats.Member {
		return
	}
	w.mu.Lock()
	if t0, ok := w.sendTime[seq]; ok {
		w.stats.LatencyNS = append(w.stats.LatencyNS, d.At.Sub(t0).Nanoseconds())
		delete(w.sendTime, seq)
	}
	w.mu.Unlock()
}

// onSent records the sender's verdict.
func (w *Workload) onSent(err error) {
	w.sent = nil // a nil channel never fires again
	if err != nil {
		w.stats.SendError = err.Error()
	}
}

// Poll takes whatever the member has queued, without waiting, and reports
// whether the workload has ended. Called from a clock.Observe pass on a
// virtual clock, it takes each delivery at the instant it was made.
func (w *Workload) Poll(delivered *atomic.Int64) bool {
	for !w.ended() {
		select {
		case err := <-w.sent:
			w.onSent(err)
		case d := <-w.mem.Deliveries():
			w.take(d, delivered)
		case <-w.mem.Views():
		default:
			return false
		}
	}
	return true
}

// Stats returns the measurements so far. Window, the per-member
// throughput denominator, runs from start to the delivery that completed
// the workload; it stays zero on a workload that did not complete.
func (w *Workload) Stats() WorkerStats {
	st := w.stats
	if st.SendError == "" && st.Delivered >= st.Expected {
		st.Window = w.last.Sub(w.start)
	}
	return st
}

// paceSends calls send(k) for k = 0..n-1 at a fixed rate: send k is due
// at start + k·interval on clk, however long the sends before it took. A
// sender that has fallen behind catches up back to back; it never drifts.
// The sender is a callback on clk that re-arms itself for the next send,
// so under a virtual clock each send is made at its instant exactly. The
// returned channel receives the first send error, or nil once all sends
// were made or stop closed.
func paceSends(clk clock.Clock, start time.Time, n int, interval time.Duration, stop <-chan struct{}, send func(k int) error) <-chan error {
	res := make(chan error, 1)
	k := 0
	var next func()
	next = func() {
		for ; k < n; k++ {
			select {
			case <-stop:
				res <- nil
				return
			default:
			}
			if wait := start.Add(time.Duration(k) * interval).Sub(clk.Now()); wait > 0 {
				clk.AfterFunc(wait, next)
				return
			}
			if err := send(k); err != nil {
				res <- err
				return
			}
		}
		res <- nil
	}
	clk.AfterFunc(0, next)
	return res
}

// encodeSeq writes a message's sequence number into a payload of the
// given size (3-byte big-endian when the payload is tiny, like the
// paper's 3-byte messages; 4-byte otherwise).
func encodeSeq(seq, size int) []byte {
	p := make([]byte, size)
	if size >= 4 {
		p[0] = byte(seq >> 24)
		p[1] = byte(seq >> 16)
		p[2] = byte(seq >> 8)
		p[3] = byte(seq)
		return p
	}
	p[0] = byte(seq >> 16)
	p[1] = byte(seq >> 8)
	p[2] = byte(seq)
	return p
}

// decodeSeq recovers the sequence number, or -1 from a payload too short
// to carry one.
func decodeSeq(p []byte) int {
	if len(p) >= 4 {
		return int(p[0])<<24 | int(p[1])<<16 | int(p[2])<<8 | int(p[3])
	}
	if len(p) >= 3 {
		return int(p[0])<<16 | int(p[1])<<8 | int(p[2])
	}
	return -1
}
