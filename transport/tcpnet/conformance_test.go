package tcpnet_test

import (
	"testing"

	"fsnewtop/transport"
	"fsnewtop/transport/tcpnet"
	"fsnewtop/transport/transporttest"
)

// TestConformance runs the transport-plane contract against real TCP
// sockets: four single-process transports on ephemeral loopback ports
// sharing one address book, exactly how a single-host multi-process
// deployment is wired.
func TestConformance(t *testing.T) {
	transporttest.Run(t, deployment(tcpnet.New))
}

// TestConformanceCoalesced runs the identical contract with one connection
// per peer: every link to a peer then shares one queue and one writer, so
// each drained queue goes out as one vectored write mixing all links'
// frames. Per-link FIFO and fidelity must survive that coalescing.
func TestConformanceCoalesced(t *testing.T) {
	transporttest.Run(t, deployment(func(cfg tcpnet.Config) (*tcpnet.Transport, error) {
		return tcpnet.NewWithConns(cfg, 1)
	}))
}

// deployment builds four transports with newTransport.
func deployment(newTransport func(tcpnet.Config) (*tcpnet.Transport, error)) func(t *testing.T) *transporttest.Deployment {
	return func(t *testing.T) *transporttest.Deployment {
		book := tcpnet.NewAddrBook()
		eps := make([]*tcpnet.Transport, 4)
		for i := range eps {
			tp, err := newTransport(tcpnet.Config{Book: book})
			if err != nil {
				t.Fatalf("tcpnet.New: %v", err)
			}
			eps[i] = tp
		}
		return &transporttest.Deployment{
			Endpoint: func(i int) transport.Transport { return eps[i%len(eps)] },
			Close: func() {
				for _, tp := range eps {
					tp.Close()
				}
			},
		}
	}
}
