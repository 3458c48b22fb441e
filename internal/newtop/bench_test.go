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
// package, not an option any deployment lane offers.
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
// order at a regular interval and returns the ordered messages per second
// observed at a member, averaged over members.
func poolKneeRun(b *testing.B, pool, members int) float64 {
	const (
		msgs     = 15
		interval = 3 * time.Millisecond
	)
	net := netsim.New(clock.NewReal(), netsim.WithDefaultProfile(netsim.Profile{Latency: netsim.Fixed(200 * time.Microsecond)}))
	defer net.Close()
	naming := orb.NewNaming()
	names := make([]string, members)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
	}
	nsos := make([]*NSO, members)
	for i, name := range names {
		nso, err := New(Config{
			Name:        name,
			Net:         net,
			Naming:      naming,
			Clock:       clock.NewReal(),
			PoolSize:    pool,
			ServiceTime: 300 * time.Microsecond,
			GC:          group.Config{SuspectAfter: time.Hour},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer nso.Close()
		nsos[i] = nso
	}
	for _, nso := range nsos {
		if err := nso.Join("bench", names); err != nil {
			b.Fatal(err)
		}
	}

	start := time.Now()
	windows := make([]time.Duration, members)
	var wg sync.WaitGroup
	for i, nso := range nsos {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for k := 0; k < msgs; k++ {
				time.Sleep(time.Until(start.Add(time.Duration(k) * interval)))
				if err := nso.Multicast("bench", group.TotalSym, []byte{0, 0, byte(k)}); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			timeout := time.After(2 * time.Minute)
			for n := 0; n < members*msgs; {
				select {
				case <-nso.Deliveries():
					n++
				case <-nso.Views():
				case <-timeout:
					b.Errorf("%s: delivered %d of %d", nso.Name(), n, members*msgs)
					return
				}
			}
			windows[i] = time.Since(start)
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
