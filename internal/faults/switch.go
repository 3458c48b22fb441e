package faults

import (
	"fmt"
	"sync"

	"fsnewtop/internal/sm"
	"fsnewtop/internal/trace"
)

// Mode enumerates the runtime-selectable value-fault flavours a Switch
// can apply. Each maps onto one of this package's injectors.
type Mode uint8

const (
	// ModeCorrupt flips bytes in outputs (CorruptOutput) — the classic
	// value fault the self-checking pair catches by comparison.
	ModeCorrupt Mode = iota + 1
	// ModeDrop silently discards outputs (DropOutput) — a send omission
	// the peer's compare deadline exposes.
	ModeDrop
	// ModeDuplicate repeats outputs (DuplicateOutput) — a commission
	// fault that puts the replicas' output streams out of step.
	ModeDuplicate
	// ModeMute swallows selected input kinds (MuteInputs) — a receive
	// omission that makes the replica's state silently diverge.
	ModeMute
)

// String implements fmt.Stringer; the forms appear in chaos schedules, so
// they must be stable across runs.
func (m Mode) String() string {
	switch m {
	case ModeCorrupt:
		return "corrupt"
	case ModeDrop:
		return "drop"
	case ModeDuplicate:
		return "duplicate"
	case ModeMute:
		return "mute"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Spec selects one value fault for a Switch to apply.
type Spec struct {
	// Mode picks the injector.
	Mode Mode
	// After skips this many outputs (or inputs, for ModeMute) before the
	// fault starts firing, counted from arming.
	After uint64
	// Every, for ModeCorrupt, perturbs one output out of Every after the
	// skip (0 = only the single output right after After).
	Every uint64
	// Kinds, for ModeMute, lists the input kinds to swallow.
	Kinds []string
}

// String renders the spec canonically (chaos schedules embed it).
func (s Spec) String() string {
	out := s.Mode.String()
	if s.After > 0 {
		out += fmt.Sprintf(" after=%d", s.After)
	}
	if s.Every > 0 {
		out += fmt.Sprintf(" every=%d", s.Every)
	}
	for _, k := range s.Kinds {
		out += " kind=" + k
	}
	return out
}

// counting is the contract the Switch needs of its armed injectors.
type counting interface {
	sm.Machine
	Counter
}

// Switch wraps one replica's machine with a fault injector that is inert
// until armed. A chaos schedule installs a Switch on each half of every
// pair at build time (via the WrapMachine hooks) and arms exactly one
// half at the scheduled instant — the paper's "value fault in one node of
// a self-checking pair", injectable mid-run.
//
// Step is single-threaded (the replica's run loop); Arm, Armed and
// Injected may be called concurrently from the scheduler.
type Switch struct {
	inner sm.Machine

	mu       sync.Mutex
	active   counting
	retired  uint64 // Injected() sums from previously replaced injectors
	everArmd bool
}

// NewSwitch wraps inner; the switch passes every step through untouched
// until Arm is called.
func NewSwitch(inner sm.Machine) *Switch { return &Switch{inner: inner} }

// SetTrace implements trace.Traceable by forwarding the ring to the
// wrapped machine, so installing a Switch never silences the trace plane.
func (s *Switch) SetTrace(r *trace.Ring) {
	if t, ok := s.inner.(trace.Traceable); ok {
		t.SetTrace(r)
	}
}

// Arm installs the injector spec selects. Arming replaces any previously
// armed injector (its injection count is retained in Injected).
func (s *Switch) Arm(spec Spec) error {
	var inj counting
	switch spec.Mode {
	case ModeCorrupt:
		inj = &CorruptOutput{Inner: s.inner, After: spec.After, Every: spec.Every}
	case ModeDrop:
		inj = &DropOutput{Inner: s.inner, After: spec.After}
	case ModeDuplicate:
		inj = &DuplicateOutput{Inner: s.inner, After: spec.After}
	case ModeMute:
		if len(spec.Kinds) == 0 {
			return fmt.Errorf("faults: ModeMute needs at least one input kind")
		}
		inj = &MuteInputs{Inner: s.inner, Kinds: spec.Kinds, After: spec.After}
	default:
		return fmt.Errorf("faults: unknown fault mode %v", spec.Mode)
	}
	s.mu.Lock()
	if s.active != nil {
		s.retired += s.active.Injected()
	}
	s.active = inj
	s.everArmd = true
	s.mu.Unlock()
	return nil
}

// Armed reports whether a fault has ever been armed on this switch.
func (s *Switch) Armed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.everArmd
}

// Injected implements Counter: total faults actually applied across every
// injector this switch has armed.
func (s *Switch) Injected() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.retired
	if s.active != nil {
		n += s.active.Injected()
	}
	return n
}

// Step implements sm.Machine.
func (s *Switch) Step(in sm.Input) []sm.Output {
	s.mu.Lock()
	m := sm.Machine(s.active)
	if s.active == nil {
		m = s.inner
	}
	s.mu.Unlock()
	return m.Step(in)
}
