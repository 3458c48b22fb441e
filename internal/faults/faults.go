// Package faults provides Byzantine fault injectors for the replica
// machines and application state machines, in the spirit of the
// fault-injection testing the authors applied to their fail-silent
// implementation [SSKXBI01]. Each injector wraps a correct component and
// perturbs its behaviour in one specific, configurable way, so tests can
// demonstrate fs1/fs2 (Section 2) and end-to-end masking (Figure 4) fault
// by fault.
package faults

import (
	"bytes"
	"sync/atomic"
	"time"

	"fsnewtop/internal/clock"
	"fsnewtop/internal/sm"
)

// Injector perturbs a machine's outputs. The zero value of each concrete
// type is inert until configured.
type Injector interface {
	sm.Machine
}

// Counter is implemented by injectors that can report how many faults
// they have actually applied (as opposed to merely being configured).
// Chaos oracles use it to decide whether a fail-silence conversion is
// owed: a member whose injector never fired owes nothing.
type Counter interface {
	// Injected returns the number of perturbations applied so far. Safe
	// to call concurrently with Step.
	Injected() uint64
}

// CorruptOutput flips bytes in selected outputs of the wrapped machine —
// the classic value fault a self-checking pair must catch by comparison.
type CorruptOutput struct {
	// Inner is the wrapped correct machine.
	Inner sm.Machine
	// After skips this many outputs before corrupting.
	After uint64
	// Every corrupts one output out of Every after the skip (0 = only the
	// single output right after After).
	Every uint64

	produced uint64
	injected atomic.Uint64
}

// Step implements sm.Machine.
func (c *CorruptOutput) Step(in sm.Input) []sm.Output {
	outs := c.Inner.Step(in)
	for i := range outs {
		c.produced++
		if c.shouldCorrupt() && len(outs[i].Payload) > 0 {
			// Flip a copy: the payload may alias the input it was computed
			// from, and over netsim that input is one slice shared with the
			// healthy half — a fault that rewrote it would corrupt both
			// halves alike and compare equal.
			bad := bytes.Clone(outs[i].Payload)
			bad[0] ^= 0xA5
			outs[i].Payload = bad
			c.injected.Add(1)
		}
	}
	return outs
}

// Injected implements Counter.
func (c *CorruptOutput) Injected() uint64 { return c.injected.Load() }

func (c *CorruptOutput) shouldCorrupt() bool {
	if c.produced <= c.After {
		return false
	}
	if c.Every == 0 {
		return c.produced == c.After+1
	}
	return (c.produced-c.After)%c.Every == 0
}

// DropOutput silently discards selected outputs — an omission fault. The
// peer replica still produces the output, so its Compare times out.
type DropOutput struct {
	Inner sm.Machine
	// After drops every output once this many have been produced.
	After uint64

	produced uint64
	injected atomic.Uint64
}

// Step implements sm.Machine.
func (d *DropOutput) Step(in sm.Input) []sm.Output {
	outs := d.Inner.Step(in)
	kept := outs[:0]
	for _, o := range outs {
		d.produced++
		if d.produced > d.After {
			d.injected.Add(1)
			continue
		}
		kept = append(kept, o)
	}
	return kept
}

// Injected implements Counter.
func (d *DropOutput) Injected() uint64 { return d.injected.Load() }

// SlowStep delays processing — a timing fault violating assumption A3,
// which the Compare deadlines (κ·π term) are calibrated to expose.
type SlowStep struct {
	Inner sm.Machine
	// After starts delaying once this many inputs have been consumed.
	After uint64
	// Delay is the per-step stall.
	Delay time.Duration
	// Clock paces the stall; nil selects the wall clock. Tests drive it
	// with a manual clock so timing faults need no real sleeping.
	Clock clock.Clock

	consumed uint64
	injected atomic.Uint64
}

// Step implements sm.Machine.
func (s *SlowStep) Step(in sm.Input) []sm.Output {
	s.consumed++
	if s.consumed > s.After && s.Delay > 0 {
		clk := s.Clock
		if clk == nil {
			clk = clock.Real{}
		}
		<-clk.After(s.Delay)
		s.injected.Add(1)
	}
	return s.Inner.Step(in)
}

// Injected implements Counter.
func (s *SlowStep) Injected() uint64 { return s.injected.Load() }

// DuplicateOutput repeats selected outputs — a commission fault: the
// replicas' output streams get out of step, so sequence-keyed comparison
// mismatches.
type DuplicateOutput struct {
	Inner sm.Machine
	// After duplicates every output once this many have been produced.
	After uint64

	produced uint64
	injected atomic.Uint64
}

// Step implements sm.Machine.
func (d *DuplicateOutput) Step(in sm.Input) []sm.Output {
	outs := d.Inner.Step(in)
	var result []sm.Output
	for _, o := range outs {
		d.produced++
		result = append(result, o)
		if d.produced > d.After {
			result = append(result, o)
			d.injected.Add(1)
		}
	}
	return result
}

// Injected implements Counter.
func (d *DuplicateOutput) Injected() uint64 { return d.injected.Load() }

// MuteInputs makes the machine deaf to selected input kinds — a receive
// omission: the replica's state silently diverges from its peer's.
type MuteInputs struct {
	Inner sm.Machine
	// Kinds lists the input kinds to swallow.
	Kinds []string
	// After starts swallowing once this many inputs have been consumed.
	After uint64

	consumed uint64
	injected atomic.Uint64
}

// Step implements sm.Machine.
func (m *MuteInputs) Step(in sm.Input) []sm.Output {
	m.consumed++
	if m.consumed > m.After {
		for _, k := range m.Kinds {
			if in.Kind == k {
				m.injected.Add(1)
				return nil
			}
		}
	}
	return m.Inner.Step(in)
}

// Injected implements Counter.
func (m *MuteInputs) Injected() uint64 { return m.injected.Load() }

// LyingApp wraps a vote.AppMachine-shaped function: it returns corrupted
// results — the application-level Byzantine fault that 2f+1 replication
// with majority voting masks (Figure 4).
type LyingApp struct {
	// Inner is the correct application function.
	Inner func(req []byte) []byte
	// After starts lying once this many requests have been applied.
	After uint64
	// Mask is XORed into the first result byte (0 selects 0xFF). Distinct
	// masks let tests model independent liars that cannot agree with each
	// other.
	Mask byte

	applied uint64
}

// Apply implements vote.AppMachine.
func (l *LyingApp) Apply(req []byte) []byte {
	l.applied++
	out := l.Inner(req)
	if l.applied > l.After {
		mask := l.Mask
		if mask == 0 {
			mask = 0xFF
		}
		lied := append([]byte(nil), out...)
		if len(lied) == 0 {
			return []byte{mask}
		}
		lied[0] ^= mask
		return lied
	}
	return out
}
