package newtop

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/group"
	"fsnewtop/internal/orb"
	"fsnewtop/transport/netsim"
)

// BenchmarkPoolKneeAblation isolates the Figure 7 thread-pool mechanism:
// with a per-request ORB service cost (Config.ServiceTime), a node's
// capacity is pool/serviceTime, so throughput rises with group size until
// the request rate exceeds it — and the knee moves with the pool size.
// It wires the members itself: ServiceTime is a modelling knob of this
// package, not an option any deployment lane offers. It runs on a virtual
// clock, where the service slots are exact: each figure is a queueing
// fact of the model, the same every run, whatever the host's load.
func BenchmarkPoolKneeAblation(b *testing.B) {
	for _, pool := range []int{5, 10, 20} {
		for _, members := range []int{4, 8, 12} {
			b.Run(fmt.Sprintf("pool=%d/members=%d", pool, members), func(b *testing.B) {
				var tput float64
				for i := 0; i < b.N; i++ {
					tput = poolKneeRun(b, pool, members)
				}
				b.ReportMetric(tput, "msgs/sec")
			})
		}
	}
}

// poolKneeRun has every member multicast msgs messages for symmetric total
// order at a regular interval and returns the ordered messages per
// protocol second observed at a member, averaged over members: a member's
// window runs from the first send to its last delivery's hand-off.
func poolKneeRun(b *testing.B, pool, members int) float64 {
	const (
		msgs     = 15
		interval = 3 * time.Millisecond
	)
	v := clock.NewVirtual()
	defer v.Stop()
	net := netsim.New(v, netsim.WithDefaultProfile(netsim.Profile{Latency: netsim.Fixed(200 * time.Microsecond)}))
	defer net.Close()
	naming := orb.NewNaming()
	names := make([]string, members)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
	}
	nsos := make([]*NSO, members)
	var start time.Time
	up := make(chan error, 1)
	// Bring-up, the joins and the sends are callbacks on the clock: the
	// members start at one instant and send at theirs.
	v.AfterFunc(0, func() {
		for i, name := range names {
			nso, err := New(Config{
				Name:        name,
				Net:         net,
				Naming:      naming,
				Clock:       v,
				PoolSize:    pool,
				ServiceTime: 300 * time.Microsecond,
				GC:          group.Config{SuspectAfter: time.Hour},
			})
			if err != nil {
				up <- err
				return
			}
			nsos[i] = nso
		}
		for _, nso := range nsos {
			if err := nso.Join("bench", names); err != nil {
				up <- err
				return
			}
		}
		start = v.Now()
		for k := 0; k < msgs; k++ {
			v.AfterFunc(time.Duration(k)*interval, func() {
				for _, nso := range nsos {
					_ = nso.Multicast("bench", group.TotalSym, []byte{0, 0, byte(k)})
				}
			})
		}
		up <- nil
	})
	defer func() {
		for _, nso := range nsos {
			if nso != nil {
				nso.Close()
			}
		}
	}()
	if err := <-up; err != nil {
		b.Fatal(err)
	}

	windows := make([]time.Duration, members)
	var wg sync.WaitGroup
	for i, nso := range nsos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timeout := time.After(2 * time.Minute)
			for n := 0; n < members*msgs; {
				select {
				case d := <-nso.Deliveries():
					if n++; n == members*msgs {
						windows[i] = d.At.Sub(start)
					}
				case <-nso.Views():
				case <-timeout:
					b.Errorf("%s: delivered %d of %d", nso.Name(), n, members*msgs)
					return
				}
			}
		}()
	}
	wg.Wait()
	var tput float64
	for _, w := range windows {
		if w > 0 {
			tput += float64(members*msgs) / w.Seconds() / float64(members)
		}
	}
	return tput
}
