package deploy

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fsnewtop/cluster"
	"fsnewtop/internal/clock"
)

// RunWorkload drives the paper's workload (Section 4) at one member, on
// clk: it multicasts spec.MsgsPerMember messages into spec.Group for
// symmetric total ordering at the regular interval, counts deliveries
// until every member's messages have arrived here, and returns the
// measurements. Ordering latency is send instant → own delivery. Every
// lane runs this loop once per member: bench.Run in process on the run's
// clock, a deploy worker on the wall clock.
//
// delivered counts this member's deliveries as they happen: the pulse
// both stall watchdogs read (bench.Run's directly, the controller's via
// progress messages). The function never times out on its own: closing
// stop ends it early, Window left zero; so does a failed multicast,
// recorded as SendError — the run cannot complete without its messages.
func RunWorkload(clk clock.Clock, mem *cluster.Member, spec RunSpec, members int, delivered *atomic.Int64, stop <-chan struct{}) WorkerStats {
	self := mem.Name()
	stats := WorkerStats{
		Member:    self,
		Expected:  members * spec.MsgsPerMember,
		LatencyNS: make([]int64, 0, spec.MsgsPerMember),
	}
	start := clk.Now()

	var mu sync.Mutex // guards sendTime between the sender and this loop
	sendTime := make(map[int]time.Time, spec.MsgsPerMember)
	sent := paceSends(clk, start, spec.MsgsPerMember, spec.SendInterval, stop, func(k int) error {
		seq := k + 1
		mu.Lock()
		sendTime[seq] = clk.Now()
		mu.Unlock()
		if err := mem.Multicast(spec.Group, cluster.TotalSym, encodeSeq(seq, spec.MsgSize)); err != nil {
			return fmt.Errorf("multicast seq %d: %w", seq, err)
		}
		return nil
	})

	for stats.Delivered < stats.Expected && stats.SendError == "" {
		select {
		case <-stop:
			stats.Elapsed = clk.Since(start)
			return stats
		case err := <-sent:
			sent = nil // the sender is done; a nil channel never fires again
			if err != nil {
				stats.SendError = err.Error()
			}
		case d := <-mem.Deliveries():
			stats.Delivered++
			delivered.Add(1)
			seq := decodeSeq(d.Payload)
			stats.Order = append(stats.Order, OrderEntry{Origin: d.Origin, Seq: seq})
			if d.Origin == self {
				mu.Lock()
				if t0, ok := sendTime[seq]; ok {
					stats.LatencyNS = append(stats.LatencyNS, clk.Since(t0).Nanoseconds())
					delete(sendTime, seq)
				}
				mu.Unlock()
			}
		case <-mem.Views():
		}
	}
	stats.Elapsed = clk.Since(start)
	if stats.SendError == "" {
		stats.Window = stats.Elapsed
		if sent != nil {
			<-sent // own messages all delivered: the last send is returning
		}
	}
	return stats
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
