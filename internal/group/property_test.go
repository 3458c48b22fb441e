package group

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"fsnewtop/internal/sm"
)

// TestPropertyTotalOrderUnderRandomWorkloads drives random mixed-service
// workloads through a synchronous cluster and checks the core invariants:
//
//   - agreement: all members deliver TotalSym (and TotalAsym) messages in
//     the same order;
//   - validity: every multicast by a correct member is delivered by every
//     member (the harness network is reliable);
//   - integrity: no duplicates, no corruption;
//   - per-sender FIFO for Reliable;
//   - causality for Causal (a member's later messages never overtake its
//     earlier ones).
func TestPropertyTotalOrderUnderRandomWorkloads(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			names := []string{"a", "b", "c", "d"}[:2+rng.Intn(3)]
			c := newTCluster(t, SuspectPing, names...)
			c.joinAll("g")

			services := []Service{Reliable, Causal, TotalSym, TotalAsym}
			type sent struct {
				origin  string
				service Service
				payload string
			}
			var log []sent
			for i := 0; i < 40; i++ {
				from := names[rng.Intn(len(names))]
				svc := services[rng.Intn(len(services))]
				payload := fmt.Sprintf("%s/%v/%03d", from, svc, i)
				log = append(log, sent{from, svc, payload})
				c.submit(from, sm.Input{Kind: KindMcast, Payload: McastReq{
					Group: "g", Service: svc, Payload: []byte(payload),
				}.Marshal()})
				if rng.Intn(3) == 0 {
					c.run() // vary interleaving: sometimes flush, sometimes batch
				}
			}
			c.run()
			c.tick(300 * time.Millisecond) // let NACK repair finish (none expected)
			c.run()

			// Validity + integrity: every member delivered exactly the
			// multicast set, once each.
			for _, n := range names {
				got := map[string]int{}
				for _, d := range c.delivered[n] {
					got[string(d.Payload)]++
				}
				if len(got) != len(log) {
					t.Fatalf("%s delivered %d distinct messages, want %d", n, len(got), len(log))
				}
				for _, s := range log {
					if got[s.payload] != 1 {
						t.Fatalf("%s delivered %q %d times", n, s.payload, got[s.payload])
					}
				}
			}

			// Agreement: the totally-ordered sub-streams are identical.
			for _, svc := range []Service{TotalSym, TotalAsym} {
				ref := filterPayloads(c.delivered[names[0]], svc)
				for _, n := range names[1:] {
					if got := filterPayloads(c.delivered[n], svc); !reflect.DeepEqual(got, ref) {
						t.Fatalf("%v order differs between %s and %s:\n%v\n%v", svc, names[0], n, ref, got)
					}
				}
			}

			// Per-sender FIFO for Reliable; causal self-order for Causal.
			for _, n := range names {
				for _, svc := range []Service{Reliable, Causal} {
					perOrigin := map[string][]string{}
					for _, d := range c.delivered[n] {
						if d.Service == svc {
							perOrigin[d.Origin] = append(perOrigin[d.Origin], string(d.Payload))
						}
					}
					for origin, msgs := range perOrigin {
						var wantOrder []string
						for _, s := range log {
							if s.origin == origin && s.service == svc {
								wantOrder = append(wantOrder, s.payload)
							}
						}
						if !reflect.DeepEqual(msgs, wantOrder) {
							t.Fatalf("%s: %v stream from %s out of order:\n%v\n%v", n, svc, origin, msgs, wantOrder)
						}
					}
				}
			}
		})
	}
}

func filterPayloads(ds []Deliver, svc Service) []string {
	var out []string
	for _, d := range ds {
		if d.Service == svc {
			out = append(out, string(d.Payload))
		}
	}
	return out
}

// TestPropertyTotalOrderUnderLoss repeats the agreement check with random
// message loss (each data message has a drop chance); NACK-driven
// retransmission must repair everything. Acks and membership stay
// reliable so the experiment isolates the retransmission path.
func TestPropertyTotalOrderUnderLoss(t *testing.T) {
	checkTotalOrderUnderLoss(t, KindData)
}

// TestPropertyTotalOrderUnderAckLoss drops acknowledgements at the same
// rate as data. A promise is sent once, so a lost one is repaired only by
// tickPromise: the member blocked on it re-announces its own and asks the
// laggard for its. (With an ack per accept and no repair, a lost *last*
// ack stalled delivery for good: seeds 2 and 8.)
func TestPropertyTotalOrderUnderAckLoss(t *testing.T) {
	checkTotalOrderUnderLoss(t, KindData, KindAck)
}

// checkTotalOrderUnderLoss multicasts 30 symmetric-order messages round
// robin among three members under 20% loss of the given kinds (repairs
// included), then heals the network: every member must deliver all 30 in
// one order.
func checkTotalOrderUnderLoss(t *testing.T, lossy ...string) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 977))
			names := []string{"a", "b", "c"}
			c := newTCluster(t, SuspectPing, names...)
			c.joinAll("g")
			c.drop = func(from, to, kind string) bool {
				return contains(lossy, kind) && rng.Intn(5) == 0
			}
			const total = 30
			for i := 0; i < total; i++ {
				from := names[i%len(names)]
				c.mcast(from, "g", TotalSym, fmt.Sprintf("m%03d", i))
			}
			// Drive repair rounds. Loss applies to retransmissions too.
			for r := 0; r < 40; r++ {
				c.tick(300 * time.Millisecond)
			}
			c.drop = nil
			for r := 0; r < 4; r++ {
				c.tick(300 * time.Millisecond)
			}
			ref := c.payloads(names[0])
			if len(ref) != total {
				t.Fatalf("%s delivered %d of %d after repair: %v", names[0], len(ref), total, ref)
			}
			for _, n := range names[1:] {
				if got := c.payloads(n); !reflect.DeepEqual(got, ref) {
					t.Fatalf("order differs after loss repair:\n%v\n%v", ref, got)
				}
			}
		})
	}
}

// TestPropertyViewChangeAgreementUnderRandomCrashes randomly silences one
// member mid-workload; the survivors must agree on both the view and the
// delivered total order (including the flush).
func TestPropertyViewChangeAgreementUnderRandomCrashes(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 131))
			names := []string{"a", "b", "c", "d"}
			c := newTCluster(t, SuspectPing, names...)
			c.joinAll("g")
			c.tick(100 * time.Millisecond)

			crashed := names[rng.Intn(len(names))]
			var survivors []string
			for _, n := range names {
				if n != crashed {
					survivors = append(survivors, n)
				}
			}

			// Random workload; the crash lands somewhere in the middle.
			crashAt := 5 + rng.Intn(10)
			for i := 0; i < 20; i++ {
				if i == crashAt {
					c.drop = func(from, to, kind string) bool {
						return from == crashed || to == crashed
					}
				}
				from := names[rng.Intn(len(names))]
				if from == crashed && i >= crashAt {
					continue
				}
				c.mcast(from, "g", TotalSym, fmt.Sprintf("m%03d", i))
			}
			// Suspect, reconfigure, flush.
			for r := 0; r < 10; r++ {
				c.now = c.now.Add(600 * time.Millisecond)
				for _, n := range survivors {
					c.submit(n, sm.Tick(c.now))
				}
				c.run()
			}

			ref := c.payloads(survivors[0])
			refView := c.lastView(survivors[0])
			if !reflect.DeepEqual(refView.Members, survivors) {
				t.Fatalf("survivor view = %+v, want %v", refView, survivors)
			}
			for _, n := range survivors[1:] {
				if got := c.payloads(n); !reflect.DeepEqual(got, ref) {
					t.Fatalf("survivor total order differs (crash of %s):\n%s: %v\n%s: %v",
						crashed, survivors[0], ref, n, got)
				}
				if v := c.lastView(n); !reflect.DeepEqual(v.Members, survivors) {
					t.Fatalf("%s view = %+v", n, v)
				}
			}
		})
	}
}
