package failsignal

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fsnewtop/internal/faults"
	"fsnewtop/internal/sm"
)

// TestInjectionCampaign replays the fault-injection campaign of
// [SSKXBI01] against the fail-signal property: for every injected replica
// fault, the pair must emit its fail-signal and must never deliver a
// corrupt output to the application.
func TestInjectionCampaign(t *testing.T) {
	cases := []struct {
		name   string
		role   string // which replica gets the fault
		inject func(sm.Machine) sm.Machine
	}{
		{"corrupt-output/leader", "leader", func(m sm.Machine) sm.Machine {
			return &faults.CorruptOutput{Inner: m, After: 1}
		}},
		{"corrupt-output/follower", "follower", func(m sm.Machine) sm.Machine {
			return &faults.CorruptOutput{Inner: m, After: 1}
		}},
		{"corrupt-periodic/leader", "leader", func(m sm.Machine) sm.Machine {
			return &faults.CorruptOutput{Inner: m, Every: 2}
		}},
		{"drop-output/leader", "leader", func(m sm.Machine) sm.Machine {
			return &faults.DropOutput{Inner: m, After: 1}
		}},
		{"drop-output/follower", "follower", func(m sm.Machine) sm.Machine {
			return &faults.DropOutput{Inner: m, After: 1}
		}},
		{"duplicate-output/leader", "leader", func(m sm.Machine) sm.Machine {
			return &faults.DuplicateOutput{Inner: m, After: 1}
		}},
		{"mute-inputs/follower", "follower", func(m sm.Machine) sm.Machine {
			return &faults.MuteInputs{Inner: m, Kinds: []string{"req"}, After: 1}
		}},
		{"slow-step/leader", "leader", func(m sm.Machine) sm.Machine {
			return &faults.SlowStep{Inner: m, After: 1, Delay: 300 * time.Millisecond}
		}},
		{"slow-step/follower", "follower", func(m sm.Machine) sm.Machine {
			return &faults.SlowStep{Inner: m, After: 1, Delay: 300 * time.Millisecond}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			e := newEnv(t)
			sink := e.addApp("app")
			instance := 0
			cfg := e.pairConfig("p", func() sm.Machine {
				instance++
				m := sm.Machine(newEchoMachine("resp", sm.LocalDelivery))
				if (tc.role == "leader" && instance == 1) || (tc.role == "follower" && instance == 2) {
					m = tc.inject(m)
				}
				return m
			})
			cfg.LocalName = "app"
			cfg.Delta = 40 * time.Millisecond
			pair, err := NewPair(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer pair.Close()

			client := e.addClient("client")
			for i := 0; i < 4; i++ {
				if err := client.Send("p", "req", []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if src := sink.waitFail(t, 15*time.Second); src != "p" {
				t.Fatalf("fail-signal attributed to %q", src)
			}
			// fs1: any outputs that did escape before the failure must be
			// correct (prefix of the echo sequence).
			sink.mu.Lock()
			defer sink.mu.Unlock()
			for i, out := range sink.outs {
				if len(out.Payload) < 7 || string(out.Payload[:3]) != "000" {
					t.Fatalf("corrupt output %d escaped the pair: %q", i, out.Payload)
				}
			}
		})
	}
}

// relayMachine forwards each request's payload untouched, so its outputs
// alias its inputs — the machine shape that makes an in-place value fault
// dangerous. seen keeps every input payload it was handed, by reference.
type relayMachine struct {
	to   []string
	mu   sync.Mutex
	seen [][]byte
}

func (m *relayMachine) Step(in sm.Input) []sm.Output {
	if in.Kind != "req" {
		return nil
	}
	m.mu.Lock()
	m.seen = append(m.seen, in.Payload)
	m.mu.Unlock()
	return []sm.Output{{Kind: "req", To: m.to, Payload: in.Payload}}
}

// TestValueFaultDoesNotReachSharedBytes: netsim hands one slice to every
// destination, so the two halves of a pair decode the same bytes, and a
// machine may pass input bytes straight to its output. A value fault in
// one half must stay that half's private lie: the pair fail-signals on
// compare, the healthy half's inputs are byte for byte what the client
// sent, and what the downstream member delivers is only ever what was
// sent. (A fault that flipped the shared bytes in place would corrupt both
// halves alike, compare equal, and ship the wrong output double-signed.)
func TestValueFaultDoesNotReachSharedBytes(t *testing.T) {
	for _, size := range []int{16, 8192} {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			e := newEnv(t)
			sink := e.addApp("app")
			cfgB := e.pairConfig("B", func() sm.Machine { return newEchoMachine("resp", sm.LocalDelivery) })
			cfgB.LocalName = "app"
			pairB, err := NewPair(cfgB)
			if err != nil {
				t.Fatal(err)
			}
			defer pairB.Close()

			healthy := &relayMachine{to: []string{"B"}}
			fault := &faults.CorruptOutput{Inner: &relayMachine{to: []string{"B"}}, After: 1, Every: 1}
			cfgA := e.pairConfig("A", nil)
			cfgA.NewMachine = func() sm.Machine { return healthy }
			cfgA.WrapMachine = func(role Role, m sm.Machine) sm.Machine {
				if role == Leader {
					return fault
				}
				return m
			}
			failed := make(chan string, 2)
			cfgA.OnFailSignal = func(reason string) { failed <- reason }
			pairA, err := NewPair(cfgA)
			if err != nil {
				t.Fatal(err)
			}
			defer pairA.Close()

			client := e.addClient("client")
			var sent [][]byte
			for i := 0; i < 4; i++ {
				req := bytes.Repeat([]byte{byte('a' + i)}, size)
				sent = append(sent, req)
				if err := client.Send("A", "req", append([]byte(nil), req...)); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case reason := <-failed:
				if !strings.Contains(reason, "mismatch") && !strings.Contains(reason, "not matched") {
					t.Fatalf("pair A failed for %q, want a compare failure", reason)
				}
			case <-time.After(15 * time.Second):
				t.Fatalf("pair with a value-faulted half never fail-signalled (%d faults injected)", fault.Injected())
			}
			if fault.Injected() == 0 {
				t.Fatal("the fault never fired")
			}

			healthy.mu.Lock()
			defer healthy.mu.Unlock()
			if len(healthy.seen) == 0 {
				t.Fatal("healthy half saw no input")
			}
			for i, in := range healthy.seen {
				if !bytes.Equal(in, sent[i]) {
					t.Fatalf("healthy half's input %d is no longer what the client sent: %.8q...", i, in)
				}
			}
			time.Sleep(20 * time.Millisecond) // anything still in flight lands
			for i, out := range sink.waitOutputs(t, 0, time.Second) {
				if out.Kind == "saw-failsignal" {
					continue // B's machine reporting A's fail-signal
				}
				if want := append([]byte(fmt.Sprintf("%06d|", i+1)), sent[i]...); !bytes.Equal(out.Payload, want) {
					t.Fatalf("member B delivered bytes nobody sent: %.8q...", out.Payload)
				}
			}
		})
	}
}
