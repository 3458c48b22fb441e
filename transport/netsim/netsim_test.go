package netsim

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"fsnewtop/internal/clock"
)

// collector buffers deliveries for assertions.
type collector struct {
	mu   sync.Mutex
	got  []Message
	cond *sync.Cond
}

func newCollector() *collector {
	c := &collector{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collector) handle(m Message) {
	c.mu.Lock()
	c.got = append(c.got, m)
	c.mu.Unlock()
	c.cond.Broadcast()
}

// wait blocks until n messages arrived or the deadline passes.
func (c *collector) wait(t *testing.T, n int, d time.Duration) []Message {
	t.Helper()
	deadline := time.Now().Add(d)
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.got) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d messages, have %d", n, len(c.got))
		}
		c.mu.Unlock()
		time.Sleep(200 * time.Microsecond)
		c.mu.Lock()
	}
	out := make([]Message, len(c.got))
	copy(out, c.got)
	return out
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func TestBasicDelivery(t *testing.T) {
	n := New(clock.NewReal())
	defer n.Close()
	c := newCollector()
	n.Register("a", func(Message) {})
	n.Register("b", c.handle)
	if err := n.Send("a", "b", "ping", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	msgs := c.wait(t, 1, time.Second)
	m := msgs[0]
	if m.From != "a" || m.To != "b" || m.Kind != "ping" || string(m.Payload) != "hello" {
		t.Fatalf("delivered %+v", m)
	}
}

func TestSendToUnknownAddr(t *testing.T) {
	n := New(clock.NewReal())
	defer n.Close()
	n.Register("a", func(Message) {})
	if err := n.Send("a", "ghost", "x", nil); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("err = %v, want ErrUnknownAddr", err)
	}
}

func TestSendAfterClose(t *testing.T) {
	n := New(clock.NewReal())
	n.Register("a", func(Message) {})
	n.Register("b", func(Message) {})
	n.Close()
	if err := n.Send("a", "b", "x", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestFIFOPerLink(t *testing.T) {
	n := New(clock.NewReal(), WithDefaultProfile(Profile{Latency: Uniform{Min: 0, Max: 500 * time.Microsecond}}))
	defer n.Close()
	c := newCollector()
	n.Register("a", func(Message) {})
	n.Register("b", c.handle)
	const total = 200
	for i := 0; i < total; i++ {
		if err := n.Send("a", "b", "seq", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	msgs := c.wait(t, total, 5*time.Second)
	for i, m := range msgs {
		if m.Payload[0] != byte(i) {
			t.Fatalf("message %d delivered out of order (payload %d)", i, m.Payload[0])
		}
	}
}

func TestLatencyBound(t *testing.T) {
	const delta = 5 * time.Millisecond
	n := New(clock.NewReal(), WithDefaultProfile(Profile{Latency: Fixed(delta)}))
	defer n.Close()
	c := newCollector()
	n.Register("a", func(Message) {})
	n.Register("b", c.handle)
	start := time.Now()
	if err := n.Send("a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed < delta {
		t.Fatalf("delivered after %v, want >= %v", elapsed, delta)
	}
}

func TestBandwidthDelaysLargeMessages(t *testing.T) {
	// 1 MB/s bandwidth: a 10 kB message takes ~10ms to serialize.
	n := New(clock.NewReal(), WithDefaultProfile(Profile{BytesPerSecond: 1 << 20}))
	defer n.Close()
	c := newCollector()
	n.Register("a", func(Message) {})
	n.Register("b", c.handle)
	start := time.Now()
	if err := n.Send("a", "b", "bulk", make([]byte, 10<<10)); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed < 9*time.Millisecond {
		t.Fatalf("10kB at 1MB/s delivered after %v, want ~10ms", elapsed)
	}
}

func TestLossDropsMessages(t *testing.T) {
	n := New(clock.NewReal(), WithSeed(7), WithDefaultProfile(Profile{Loss: 1.0}))
	defer n.Close()
	c := newCollector()
	n.Register("a", func(Message) {})
	n.Register("b", c.handle)
	for i := 0; i < 50; i++ {
		if err := n.Send("a", "b", "x", nil); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if got := c.count(); got != 0 {
		t.Fatalf("delivered %d messages on a 100%%-loss link", got)
	}
	if s := n.Stats(); s.Dropped != 50 {
		t.Fatalf("Dropped = %d, want 50", s.Dropped)
	}
}

func TestPartialLossStats(t *testing.T) {
	n := New(clock.NewReal(), WithSeed(42), WithDefaultProfile(Profile{Loss: 0.5}))
	defer n.Close()
	c := newCollector()
	n.Register("a", func(Message) {})
	n.Register("b", c.handle)
	const total = 400
	for i := 0; i < total; i++ {
		if err := n.Send("a", "b", "x", nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := n.Stats()
		if s.Delivered+s.Dropped == total {
			if s.Dropped < total/4 || s.Dropped > 3*total/4 {
				t.Fatalf("Dropped = %d of %d, implausible for 50%% loss", s.Dropped, total)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never settled: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBlockAndUnblock(t *testing.T) {
	n := New(clock.NewReal())
	defer n.Close()
	c := newCollector()
	n.Register("a", func(Message) {})
	n.Register("b", c.handle)
	n.Block("a", "b")
	if err := n.Send("a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if c.count() != 0 {
		t.Fatal("message crossed a blocked link")
	}
	if s := n.Stats(); s.Blocked != 1 {
		t.Fatalf("Blocked = %d, want 1", s.Blocked)
	}
	n.Unblock("a", "b")
	if err := n.Send("a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 1, time.Second)
}

func TestPartitionGroups(t *testing.T) {
	n := New(clock.NewReal())
	defer n.Close()
	cs := map[Addr]*collector{}
	for _, a := range []Addr{"a", "b", "c", "d"} {
		c := newCollector()
		cs[a] = c
		n.Register(a, c.handle)
	}
	n.Partition([]Addr{"a", "b"}, []Addr{"c", "d"})
	// Within-group traffic flows.
	if err := n.Send("a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	cs["b"].wait(t, 1, time.Second)
	// Cross-group traffic is blocked, both directions.
	if err := n.Send("a", "c", "x", nil); err != nil {
		t.Fatal(err)
	}
	if err := n.Send("d", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if cs["c"].count() != 0 || cs["b"].count() != 1 {
		t.Fatal("partition leaked cross-group traffic")
	}
}

func TestPerLinkProfileOverride(t *testing.T) {
	n := New(clock.NewReal(), WithDefaultProfile(Profile{Latency: Fixed(50 * time.Millisecond)}))
	defer n.Close()
	c := newCollector()
	n.Register("a", func(Message) {})
	n.Register("b", c.handle)
	n.SetLinkProfile("a", "b", Profile{}) // zero latency override
	start := time.Now()
	if err := n.Send("a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("override ignored; delivery took %v", elapsed)
	}
}

func TestOneWayProfile(t *testing.T) {
	n := New(clock.NewReal())
	defer n.Close()
	ca, cb := newCollector(), newCollector()
	n.Register("a", ca.handle)
	n.Register("b", cb.handle)
	n.SetOneWayProfile("a", "b", Profile{Loss: 1.0})
	if err := n.Send("a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	if err := n.Send("b", "a", "x", nil); err != nil {
		t.Fatal(err)
	}
	ca.wait(t, 1, time.Second) // reverse direction unaffected
	time.Sleep(5 * time.Millisecond)
	if cb.count() != 0 {
		t.Fatal("one-way loss profile leaked")
	}
}

func TestDeregisterDropsInFlight(t *testing.T) {
	n := New(clock.NewReal(), WithDefaultProfile(Profile{Latency: Fixed(20 * time.Millisecond)}))
	defer n.Close()
	c := newCollector()
	n.Register("a", func(Message) {})
	n.Register("b", c.handle)
	if err := n.Send("a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	n.Deregister("b")
	time.Sleep(40 * time.Millisecond)
	if c.count() != 0 {
		t.Fatal("message delivered to deregistered endpoint")
	}
}

func TestHandlerMaySend(t *testing.T) {
	n := New(clock.NewReal())
	defer n.Close()
	c := newCollector()
	n.Register("echo", func(m Message) {
		if m.Kind == "ping" {
			_ = n.Send("echo", m.From, "pong", m.Payload)
		}
	})
	n.Register("client", c.handle)
	if err := n.Send("client", "echo", "ping", []byte("x")); err != nil {
		t.Fatal(err)
	}
	msgs := c.wait(t, 1, time.Second)
	if msgs[0].Kind != "pong" {
		t.Fatalf("got %+v", msgs[0])
	}
}

func TestStatsCounters(t *testing.T) {
	n := New(clock.NewReal())
	defer n.Close()
	c := newCollector()
	n.Register("a", func(Message) {})
	n.Register("b", c.handle)
	if err := n.Send("a", "b", "x", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 1, time.Second)
	s := n.Stats()
	if s.Sent != 1 || s.Delivered != 1 || s.Bytes != 10 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCloseIsIdempotentAndStopsWorkers(t *testing.T) {
	n := New(clock.NewReal(), WithDefaultProfile(Profile{Latency: Fixed(time.Hour)}))
	n.Register("a", func(Message) {})
	n.Register("b", func(Message) {})
	if err := n.Send("a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		n.Close()
		n.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung on a link waiting out a long delay")
	}
}

func TestConcurrentSendsAllDelivered(t *testing.T) {
	n := New(clock.NewReal())
	defer n.Close()
	c := newCollector()
	n.Register("sink", c.handle)
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		addr := Addr(rune('a' + s))
		n.Register(addr, func(Message) {})
		wg.Add(1)
		go func(from Addr) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := n.Send(from, "sink", "x", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(addr)
	}
	wg.Wait()
	c.wait(t, senders*per, 5*time.Second)
}

func TestLatencyModels(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if d := (Fixed(3 * time.Millisecond)).Delay(r); d != 3*time.Millisecond {
		t.Fatalf("Fixed = %v", d)
	}
	u := Uniform{Min: time.Millisecond, Max: 2 * time.Millisecond}
	for i := 0; i < 100; i++ {
		if d := u.Delay(r); d < u.Min || d > u.Max {
			t.Fatalf("Uniform produced %v outside [%v,%v]", d, u.Min, u.Max)
		}
	}
	if d := (Uniform{Min: 5, Max: 5}).Delay(r); d != 5 {
		t.Fatalf("degenerate Uniform = %v", d)
	}
	nm := Normal{Mean: time.Millisecond, StdDev: 5 * time.Millisecond}
	for i := 0; i < 100; i++ {
		if d := nm.Delay(r); d < 0 {
			t.Fatalf("Normal produced negative delay %v", d)
		}
	}
}

// Property: uniform latency always stays within bounds for arbitrary ranges.
func TestQuickUniformWithinBounds(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	f := func(a, b uint32) bool {
		lo, hi := time.Duration(a), time.Duration(b)
		if hi < lo {
			lo, hi = hi, lo
		}
		d := (Uniform{Min: lo, Max: hi}).Delay(r)
		return d >= lo && d <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestManualClockDelivery(t *testing.T) {
	clk := clock.NewManual()
	n := New(clk, WithDefaultProfile(Profile{Latency: Fixed(time.Second)}))
	defer n.Close()
	c := newCollector()
	n.Register("a", func(Message) {})
	n.Register("b", c.handle)
	if err := n.Send("a", "b", "x", nil); err != nil {
		t.Fatal(err)
	}
	// Give the link worker a moment to arm its timer, then advance past it.
	deadline := time.Now().Add(2 * time.Second)
	for clk.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("link worker never armed its timer")
		}
		time.Sleep(100 * time.Microsecond)
	}
	clk.Advance(time.Second)
	c.wait(t, 1, 2*time.Second)
}

// TestFramesEqualMessagesWithoutCoalescing pins FramesSent's meaning:
// every message is its own frame, so frames equal messages sent.
func TestFramesEqualMessagesWithoutCoalescing(t *testing.T) {
	v := clock.NewVirtual()
	defer v.Stop()
	n := New(v, WithShards(1), WithDefaultProfile(Profile{Latency: Fixed(time.Millisecond)}))
	defer n.Close()

	const k = 7
	done := make(chan struct{})
	var got int
	var mu sync.Mutex
	n.Register("b", func(Message) {
		mu.Lock()
		if got++; got == k {
			close(done)
		}
		mu.Unlock()
	})
	n.Register("a", func(Message) {})
	for i := 0; i < k; i++ {
		if err := n.Send("a", "b", "data", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deliveries stalled")
	}
	if f := n.FramesSent(); f != k {
		t.Fatalf("FramesSent = %d, want %d (one frame per message)", f, k)
	}
}
