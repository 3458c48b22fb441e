package tcpnet

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"fsnewtop/transport"
)

func item(kind, payload string) []byte { return encodeItem(kind, []byte(payload)) }

// TestBatchFrameRoundTrip pins the coalesced wire form: bit 31 flags the
// length prefix, the header carries the run's last seq, and the items
// decode back byte-perfect in order.
func TestBatchFrameRoundTrip(t *testing.T) {
	tr := &Transport{epoch: 7}
	run := []outEntry{
		{item: item("k1", "alpha"), from: "a", to: "b", seq: 5},
		{item: item("k2", "bravo"), from: "a", to: "b", seq: 6},
		{item: item("k1", ""), from: "a", to: "b", seq: 7},
	}
	frame := tr.encodeBatchFrame(run)
	prefix := binary.BigEndian.Uint32(frame)
	if prefix&frameBatchFlag == 0 {
		t.Fatal("batch frame prefix missing the batch flag")
	}
	if int(prefix&^frameBatchFlag) != len(frame)-4 {
		t.Fatalf("length prefix %d, frame body %d", prefix&^frameBatchFlag, len(frame)-4)
	}
	epoch, seq, msgs, err := decodeBatchFrame(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 7 || seq != 7 {
		t.Fatalf("epoch %d seq %d, want 7 and 7 (last entry's)", epoch, seq)
	}
	wantKinds := []string{"k1", "k2", "k1"}
	wantPayloads := []string{"alpha", "bravo", ""}
	if len(msgs) != 3 {
		t.Fatalf("decoded %d messages, want 3", len(msgs))
	}
	for i, m := range msgs {
		if m.From != "a" || m.To != "b" || m.Kind != wantKinds[i] || string(m.Payload) != wantPayloads[i] {
			t.Fatalf("msg %d = %+v", i, m)
		}
	}
}

func TestBatchFrameRejectsLyingCount(t *testing.T) {
	tr := &Transport{}
	frame := tr.encodeBatchFrame([]outEntry{{item: item("k", "x"), from: "a", to: "b", seq: 1}})
	body := append([]byte(nil), frame[4:]...)
	// The count field sits after epoch(8) + seq(8) + "a"(4+1) + "b"(4+1).
	off := 8 + 8 + 5 + 5
	binary.BigEndian.PutUint32(body[off:], 1<<30)
	if _, _, _, err := decodeBatchFrame(body); err == nil {
		t.Fatal("accepted a batch frame claiming 2^30 items")
	}
	binary.BigEndian.PutUint32(body[off:], 0)
	if _, _, _, err := decodeBatchFrame(body); err == nil {
		t.Fatal("accepted an empty batch frame")
	}
}

// TestPackGroupsAdjacentSameLinkRuns drives the writer's packer directly:
// adjacent same-link messages coalesce, a link change or an already
// framed message breaks the run, and counts stay message-accurate
// throughout.
func TestPackGroupsAdjacentSameLinkRuns(t *testing.T) {
	tr := &Transport{epoch: 1}
	p := &peer{t: tr}
	legacy := []byte("legacy")
	pre := tr.frameHead("x", "y", "k", legacy)
	entries := []outEntry{
		{item: item("k", "1"), from: "a", to: "b", seq: 1},
		{item: item("k", "2"), from: "a", to: "b", seq: 2},
		{item: item("k", "3"), from: "a", to: "c", seq: 3}, // link change breaks the run
		{head: pre, payload: legacy},                       // framed message passes through, payload by reference
		{item: item("k", "4"), from: "a", to: "c", seq: 5},
	}
	frames := p.pack(entries)
	if len(frames) != 4 {
		t.Fatalf("packed into %d frames, want 4", len(frames))
	}
	for i, c := range []int{2, 1, 1, 1} {
		if frames[i].msgs != c {
			t.Fatalf("frame %d carries %d messages, want %d", i, frames[i].msgs, c)
		}
	}
	if binary.BigEndian.Uint32(frames[0].head)&frameBatchFlag == 0 {
		t.Fatal("first run did not become a batch frame")
	}
	if !bytes.Equal(frames[2].head, pre) || &frames[2].body[0] != &legacy[0] {
		t.Fatal("framed message was not passed through verbatim, payload by reference")
	}
	for _, i := range []int{1, 3} {
		if binary.BigEndian.Uint32(frames[i].head)&frameBatchFlag != 0 || frames[i].body != nil {
			t.Fatalf("run of one (frame %d) must travel as a plain frame encoded whole", i)
		}
	}
	_, seq, msgs, err := decodeBatchFrame(frames[0].head[4:])
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 || len(msgs) != 2 || string(msgs[0].Payload) != "1" || string(msgs[1].Payload) != "2" {
		t.Fatalf("batch decoded seq=%d msgs=%v", seq, msgs)
	}
	if got := tr.FramesSent(); got != 4 {
		t.Fatalf("FramesSent = %d, want 4", got)
	}
}

// TestPackRespectsCaps pins both run bounds: coalesceMaxMsgs splits a long
// run, and a payload that would blow coalesceMaxBytes starts its own frame
// (a run of one, so it travels as a plain frame the receiver size-checks
// like any other).
func TestPackRespectsCaps(t *testing.T) {
	tr := &Transport{epoch: 1}
	p := &peer{t: tr}
	var entries []outEntry
	for i := 0; i < coalesceMaxMsgs+1; i++ {
		entries = append(entries, outEntry{item: item("k", "x"), from: "a", to: "b", seq: uint64(i + 1)})
	}
	frames := p.pack(entries)
	if len(frames) != 2 || frames[0].msgs != coalesceMaxMsgs || frames[1].msgs != 1 {
		t.Fatalf("msg cap: packed into %+v", frames)
	}

	big := make([]byte, coalesceMaxBytes)
	entries = []outEntry{
		{item: encodeItem("k", big), from: "a", to: "b", seq: 1},
		{item: item("k", "small"), from: "a", to: "b", seq: 2},
		{item: item("k", "small2"), from: "a", to: "b", seq: 3},
	}
	frames = p.pack(entries)
	if len(frames) != 2 || frames[0].msgs != 1 || frames[1].msgs != 2 {
		t.Fatalf("byte cap: %d frames", len(frames))
	}
	if binary.BigEndian.Uint32(frames[0].head)&frameBatchFlag != 0 {
		t.Fatal("oversized run of one must travel as a plain frame")
	}
}

// TestCoalescedDeliveryAmortizesFrames is the end-to-end claim: a dense
// burst over real sockets with Coalesce on arrives complete and in order
// having crossed the wire in substantially fewer frames than messages.
func TestCoalescedDeliveryAmortizesFrames(t *testing.T) {
	book := NewAddrBook()
	a, err := New(Config{Book: book, Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Book: book, Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 2000
	got := make(chan int, n)
	b.Register("dst", func(m transport.Message) {
		got <- int(m.Payload[0])<<8 | int(m.Payload[1])
	})
	a.Register("src", func(transport.Message) {})
	for i := 0; i < n; i++ {
		if err := a.Send("src", "dst", "k", []byte{byte(i >> 8), byte(i), 0, 0, 0, 0, 0, 0}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	deadline := time.After(10 * time.Second)
	for want := 0; want < n; want++ {
		select {
		case seq := <-got:
			if seq != want {
				t.Fatalf("delivered %d, want %d", seq, want)
			}
		case <-deadline:
			t.Fatalf("timed out at %d/%d", want, n)
		}
	}
	frames := a.FramesSent()
	if frames == 0 || frames >= n {
		t.Fatalf("%d messages crossed in %d frames — no amortization", n, frames)
	}
	t.Logf("%d messages in %d frames (%.1f msgs/frame)", n, frames, float64(n)/float64(frames))
}
