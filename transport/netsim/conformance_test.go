package netsim_test

import (
	"testing"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/transport"
	"fsnewtop/transport/netsim"
	"fsnewtop/transport/transporttest"
)

// TestConformance runs the transport-plane contract against the simulator.
// One Network serves every endpoint; a small fixed latency keeps delivery
// genuinely asynchronous so ordering is earned, not accidental.
func TestConformance(t *testing.T) {
	transporttest.Run(t, deployment())
}

// TestConformanceCoalesced runs the identical contract on a single
// dispatcher shard: every link's traffic then falls due in the same
// heap, and each wakeup drains all due deliveries of all links as one
// locked batch. Per-link FIFO and fidelity must survive that coalescing.
func TestConformanceCoalesced(t *testing.T) {
	transporttest.Run(t, deployment(netsim.WithShards(1)))
}

func deployment(opts ...netsim.Option) func(t *testing.T) *transporttest.Deployment {
	return func(t *testing.T) *transporttest.Deployment {
		opts := append([]netsim.Option{netsim.WithDefaultProfile(netsim.Profile{
			Latency: netsim.Fixed(50 * time.Microsecond),
		})}, opts...)
		net := netsim.New(clock.NewReal(), opts...)
		return &transporttest.Deployment{
			Endpoint: func(int) transport.Transport { return net },
			Close:    net.Close,
		}
	}
}
