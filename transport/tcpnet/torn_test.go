package tcpnet

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"fsnewtop/transport"
)

// cuttingProxy relays TCP connections to target. The first connection is
// severed — reset, not closed politely — once cut bytes have been passed
// on; every later connection is relayed whole.
func cuttingProxy(t *testing.T, target string, cut int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for first := true; ; first = false {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				return
			}
			if !first {
				go func() {
					io.Copy(out, in)
					in.Close()
					out.Close()
				}()
				continue
			}
			// A small fixed receive buffer: what the sender can have in
			// flight when the cut comes is bounded by its own send buffer,
			// whatever this host's autotuning limits are.
			in.(*net.TCPConn).SetReadBuffer(64 << 10)
			io.CopyN(out, in, cut)
			in.(*net.TCPConn).SetLinger(0) // RST: the sender's blocked write fails now
			in.Close()
			out.Close()
		}
	}()
	return ln.Addr().String()
}

// TestTornFrameIsResentWhole kills a connection between a frame's header
// and the end of its payload. Header and payload reach the socket as two
// buffers of one vectored write, and they are one unit of recovery: the
// frame counts as written only when both went out, so the redial resends
// it whole, the receiver never delivers a torn frame or a payload parsed
// as a header, the link stays FIFO, and nothing is counted dropped.
func TestTornFrameIsResentWhole(t *testing.T) {
	book := NewAddrBook()
	recv, err := New(Config{Book: book})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := newTransport(Config{Book: book}, 1, maxFrame)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	var mu sync.Mutex
	var got [][]byte
	arrived := make(chan struct{}, 8)
	recv.Register("dst", func(m transport.Message) {
		mu.Lock()
		got = append(got, m.Payload)
		mu.Unlock()
		arrived <- struct{}{}
	})
	send.Register("src", func(transport.Message) {})

	// Larger than any socket buffering between the two ends, so the write
	// is still in progress when the connection dies.
	big := bytes.Repeat([]byte("0123456789abcdef"), 8<<20/16)
	small := func(b byte) []byte { return []byte{b, b, b} }
	first := int64(4 + frameSize("src", "dst", "k", len(small(0))))
	head := int64(len(send.frameHead("src", "dst", "k", len(big))))
	book.Set("dst", cuttingProxy(t, recv.Endpoint(), first+head+100))

	for _, p := range [][]byte{small(0), big, small(2)} {
		if err := send.Send("src", "dst", "k", p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case <-arrived:
		case <-time.After(30 * time.Second):
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("%d of 3 messages delivered after the connection was cut mid-frame (sender dropped %d)",
				len(got), send.Stats().Dropped)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(got[0], small(0)) || !bytes.Equal(got[1], big) || !bytes.Equal(got[2], small(2)) {
		t.Fatalf("delivered %d, %d and %d bytes: torn, reordered or corrupted", len(got[0]), len(got[1]), len(got[2]))
	}
	if d := send.Stats().Dropped; d != 0 {
		t.Fatalf("sender counted %d drops; a partially written frame is resent, not dropped", d)
	}
}
