package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fsnewtop/transport"
)

// frameCounter is the frame-accounting capability both backends offer
// beside transport.StatsSource.
type frameCounter interface{ FramesSent() uint64 }

// layerOf attributes a wire message kind to the module that owns it: the
// pair protocol's kinds to core, the pair's double-signed output to
// fsnewtop (whose invocation layer receives and verifies it), everything
// the ORB carries to orb.
func layerOf(kind string) string {
	switch kind {
	case "fs.new", "fs.fwd", "fs.single", "fs.relay":
		return "core"
	case "fs.out":
		return "fsnewtop"
	}
	if len(kind) >= 4 && kind[:4] == "orb." {
		return "orb"
	}
	return "other"
}

// counterShards spreads one kind's counters over cache lines. A message
// picks its shard from the address whose goroutine is running (the sender
// on Send, the receiver in a handler), so the stack's goroutines mostly
// stay off each other's lines: with one shared line the decorator alone
// cost crash-tolerant NewTOP, whose traffic is all one kind, a fifth of
// its throughput.
const counterShards = 16

type counterShard struct {
	sends, sendBytes, sendsTimed, sendBusyNs atomic.Uint64
	handled, handledTimed, handlerBusyNs     atomic.Uint64
	_                                        [8]byte // pad to one 64-byte line
}

// kindStats are one message kind's counters: sends and handler runs, with
// the time spent inside each.
type kindStats struct {
	shards [counterShards]counterShard
}

func (ks *kindStats) shard(addr transport.Addr) *counterShard {
	h := len(addr)
	if h > 1 {
		h += int(addr[h-1]) + 7*int(addr[h-2])
	}
	return &ks.shards[h%counterShards]
}

// kindTotals is a plain copy of kindStats, the busy times scaled up from
// the timed calls to all of them.
type kindTotals struct {
	Sends, SendBytes, SendBusyNs uint64
	Handled, HandlerBusyNs       uint64
}

// span is one timed interval: a driver span (multicast, submit, deliver)
// or a sampled transport span (send, handler).
type span struct {
	Name      string `json:"name"`
	Layer     string `json:"layer"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
	Parent    string `json:"parent,omitempty"`
	Multicast string `json:"multicast,omitempty"`
}

const (
	// timeEvery is the timing stride: every message is counted, one call
	// in this many per kind and counter shard is timed, and busy time is
	// scaled up by the ratio. Reading the clock costs 80 ns on the
	// reference host; four readings on each of NewTOP's 580,000 messages a
	// second were a tenth of the two cores.
	timeEvery = 4
	// rawSpanRing bounds the sampled send/handler spans kept in memory.
	rawSpanRing = 1 << 14
	// rawSpanEvery is the span stride, a multiple of timeEvery: one send
	// and one handler span in this many, per kind and counter shard, enter
	// the ring.
	rawSpanEvery = 64
)

// tracer is the benchmark's transport decorator: it sits between the
// stack and the backend, counts every Send and every Handler run per
// message kind, and times a fixed share of both. It owns no goroutine and
// changes no message.
type tracer struct {
	inner transport.Transport
	epoch time.Time
	kinds sync.Map // string → *kindStats

	ringMu sync.Mutex
	ring   []span
	ringN  int
}

func newTracer(inner transport.Transport, epoch time.Time) *tracer {
	return &tracer{inner: inner, epoch: epoch, ring: make([]span, 0, rawSpanRing)}
}

func (t *tracer) stats(kind string) *kindStats {
	if ks, ok := t.kinds.Load(kind); ok {
		return ks.(*kindStats)
	}
	ks, _ := t.kinds.LoadOrStore(kind, &kindStats{})
	return ks.(*kindStats)
}

func (t *tracer) sample(name, kind string, start, end time.Time) {
	s := span{Name: name + ":" + kind, Layer: layerOf(kind), StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds()}
	t.ringMu.Lock()
	if len(t.ring) < rawSpanRing {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.ringN%rawSpanRing] = s
	}
	t.ringN++
	t.ringMu.Unlock()
}

// Register implements transport.Transport, counting and timing runs of h.
func (t *tracer) Register(addr transport.Addr, h transport.Handler) {
	t.inner.Register(addr, func(m transport.Message) {
		sh := t.stats(m.Kind).shard(m.To)
		n := sh.handled.Add(1)
		if n%timeEvery != 0 {
			h(m)
			return
		}
		start := time.Now()
		h(m)
		end := time.Now()
		sh.handledTimed.Add(1)
		sh.handlerBusyNs.Add(uint64(end.Sub(start)))
		if n%rawSpanEvery == 0 {
			t.sample("handler", m.Kind, start, end)
		}
	})
}

// Deregister implements transport.Transport.
func (t *tracer) Deregister(addr transport.Addr) { t.inner.Deregister(addr) }

// Send implements transport.Transport, counting and timing the backend's
// Send.
func (t *tracer) Send(from, to transport.Addr, kind string, payload []byte) error {
	sh := t.stats(kind).shard(from)
	sh.sendBytes.Add(uint64(len(payload)))
	n := sh.sends.Add(1)
	if n%timeEvery != 0 {
		return t.inner.Send(from, to, kind, payload)
	}
	start := time.Now()
	err := t.inner.Send(from, to, kind, payload)
	end := time.Now()
	sh.sendsTimed.Add(1)
	sh.sendBusyNs.Add(uint64(end.Sub(start)))
	if n%rawSpanEvery == 0 {
		t.sample("send", kind, start, end)
	}
	return err
}

// Close implements transport.Transport.
func (t *tracer) Close() { t.inner.Close() }

// totals copies the per-kind counters.
func (t *tracer) totals() map[string]kindTotals {
	out := make(map[string]kindTotals)
	t.kinds.Range(func(k, v any) bool {
		var kt kindTotals
		var sendsTimed, handledTimed uint64
		for i := range v.(*kindStats).shards {
			sh := &v.(*kindStats).shards[i]
			kt.Sends += sh.sends.Load()
			kt.SendBytes += sh.sendBytes.Load()
			kt.SendBusyNs += sh.sendBusyNs.Load()
			sendsTimed += sh.sendsTimed.Load()
			kt.Handled += sh.handled.Load()
			kt.HandlerBusyNs += sh.handlerBusyNs.Load()
			handledTimed += sh.handledTimed.Load()
		}
		if sendsTimed > 0 {
			kt.SendBusyNs = uint64(float64(kt.SendBusyNs) * float64(kt.Sends) / float64(sendsTimed))
		}
		if handledTimed > 0 {
			kt.HandlerBusyNs = uint64(float64(kt.HandlerBusyNs) * float64(kt.Handled) / float64(handledTimed))
		}
		out[k.(string)] = kt
		return true
	})
	return out
}

// rawSpans returns the sampled ring, oldest first.
func (t *tracer) rawSpans() []span {
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	out := append([]span(nil), t.ring...)
	sort.Slice(out, func(i, j int) bool { return out[i].StartNs < out[j].StartNs })
	return out
}

// The stack discovers a backend's optional capabilities by interface
// assertion, so the decorator must have exactly the capabilities of what
// it wraps — no more (a decorated tcpnet must still refuse partitions),
// no fewer (the cluster shapes sync links through FaultInjector). Both
// backends account traffic and frames; only the simulator injects faults.
type (
	tracedAccounted struct {
		*tracer
		transport.StatsSource
		frameCounter
	}
	tracedSim struct {
		*tracer
		transport.StatsSource
		frameCounter
		transport.FaultInjector
	}
)

// trace decorates inner. The returned transport has inner's capabilities;
// the *tracer holds the counters.
func trace(inner transport.Transport, epoch time.Time) (transport.Transport, *tracer) {
	t := newTracer(inner, epoch)
	ss, hasStats := inner.(transport.StatsSource)
	fc, hasFrames := inner.(frameCounter)
	fi, hasFaults := inner.(transport.FaultInjector)
	switch {
	case hasStats && hasFrames && hasFaults:
		return tracedSim{t, ss, fc, fi}, t
	case hasStats && hasFrames:
		return tracedAccounted{t, ss, fc}, t
	default:
		return t, t
	}
}
