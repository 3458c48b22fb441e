// Package sm defines the deterministic state-machine contract that the
// fail-signal construction requires of its target process (requirement R1,
// Section 2.1 of the paper): executing an operation in a given state with
// given arguments must always produce the same result.
//
// Everything the fail-signal wrapper replicates — in this repository, the
// NewTOP group-communication service — is expressed as a Machine: a
// single-threaded transducer from ordered Inputs to Outputs. Time is not an
// ambient side channel: machines that need timeouts consume explicit Tick
// inputs, so that both replicas of an FS pair observe identical timer
// behaviour (this is what makes the suspector and membership outputs of GC
// and GC' identical, as Section 3.1 argues).
package sm

import (
	"bytes"
	"fmt"
	"time"

	"fsnewtop/internal/codec"
)

// Input is one ordered input event to a machine.
type Input struct {
	// Kind tags the event type, e.g. "gc.data", "gc.ack", TickKind.
	Kind string
	// From is the logical address of the sender ("" for local events).
	From string
	// Payload is the event body, encoded by the machine's own schema.
	Payload []byte
}

// Output is one effect produced by a step.
type Output struct {
	// Kind tags the message type for the recipient.
	Kind string
	// To lists logical destination addresses. The special destination
	// LocalDelivery addresses the machine's own co-located client (for GC:
	// the invocation layer).
	To []string
	// Payload is the message body.
	Payload []byte
	// Gather, when not nil, is the message body in gather form instead of
	// Payload (which is then nil): an encoder in gather form
	// (codec.NewGatherWriter) kept the application payloads it carries by
	// reference. Its body regions are what a fail-signal pair reads to hash
	// each payload once per node; Body is the body in one slice.
	Gather *codec.Gather
}

// Size returns the length of the output's body.
func (o Output) Size() int {
	if o.Gather != nil {
		return o.Gather.Len()
	}
	return len(o.Payload)
}

// Body returns the output's body in one slice: Payload, or the flattened
// gather form, built once however often it is asked for.
func (o Output) Body() []byte {
	if o.Gather != nil {
		return o.Gather.Flat()
	}
	return o.Payload
}

// LocalDelivery is the reserved destination meaning "deliver to the local
// application layer", not to a network peer.
const LocalDelivery = "@local"

// TickKind is the reserved input kind carrying the current time. Ticks are
// ordered like any other input; their payload is encoded with EncodeTick.
const TickKind = "@tick"

func init() { codec.Intern(LocalDelivery, TickKind) }

// Machine is a deterministic transducer. Implementations must be
// single-threaded: Step is never called concurrently, and all state must be
// confined to the machine.
type Machine interface {
	Step(Input) []Output
}

// EncodeTick encodes a tick payload for the given instant.
func EncodeTick(now time.Time) []byte {
	w := codec.NewWriter(8)
	w.Time(now)
	return w.Bytes()
}

// DecodeTick decodes a tick payload.
func DecodeTick(p []byte) (time.Time, error) {
	r := codec.NewReader(p)
	t := r.Time()
	if err := r.Finish(); err != nil {
		return time.Time{}, fmt.Errorf("sm: decoding tick: %w", err)
	}
	return t, nil
}

// Tick builds a tick input for the given instant.
func Tick(now time.Time) Input {
	return Input{Kind: TickKind, Payload: EncodeTick(now)}
}

// MarshalInput encodes an input for transmission (the FS leader forwards
// every ordered input to the follower in this form).
func MarshalInput(in Input) []byte {
	w := codec.NewWriter(4 + len(in.Kind) + 4 + len(in.From) + 4 + len(in.Payload))
	w.String(in.Kind)
	w.String(in.From)
	w.Bytes32(in.Payload)
	return w.Bytes()
}

// UnmarshalInput decodes an input encoded by MarshalInput.
func UnmarshalInput(b []byte) (Input, error) {
	r := codec.NewReader(b)
	in := Input{
		Kind: r.Name(),
		From: r.Name(),
	}
	in.Payload = r.Bytes32()
	if err := r.Finish(); err != nil {
		return Input{}, fmt.Errorf("sm: decoding input: %w", err)
	}
	return in, nil
}

// MarshalOutput encodes an output deterministically. Fail-signal output
// comparison is byte equality over this encoding, so it must be canonical:
// equal outputs always encode to equal bytes.
func MarshalOutput(out Output) []byte {
	w := codec.NewWriter(OutputSize(out))
	EncodeOutput(w, out)
	return w.Bytes()
}

// OutputSize is the exact length of MarshalOutput(out).
func OutputSize(out Output) int {
	size := 4 + len(out.Kind) + 4 + 4 + out.Size()
	for _, to := range out.To {
		size += 4 + len(to)
	}
	return size
}

// EncodeOutput appends the encoding MarshalOutput returns to w, recording
// the body regions of out's gather form at their place in it (see
// codec.Writer.Nested32).
func EncodeOutput(w *codec.Writer, out Output) {
	w.String(out.Kind)
	w.StringSlice(out.To)
	w.Nested32(out.Payload, out.Gather)
}

// UnmarshalOutput decodes an output encoded by MarshalOutput.
func UnmarshalOutput(b []byte) (Output, error) {
	r := codec.NewReader(b)
	out := Output{Kind: r.Name()}
	out.To = r.StringSlice()
	out.Payload = r.Bytes32()
	if err := r.Finish(); err != nil {
		return Output{}, fmt.Errorf("sm: decoding output: %w", err)
	}
	return out, nil
}

// OutputInput decodes an output encoded by MarshalOutput as the input it
// becomes at a machine that receives it from from: its kind and payload.
// The destinations are checked and skipped, not built, so it refuses
// exactly the encodings UnmarshalOutput refuses and allocates nothing for
// a kind in the name table (codec.Intern). The payload aliases b.
func OutputInput(b []byte, from string) (Input, error) {
	r := codec.NewReader(b)
	in := Input{Kind: r.Name(), From: from}
	r.SkipStringSlice()
	in.Payload = r.Bytes32()
	if err := r.Finish(); err != nil {
		return Input{}, fmt.Errorf("sm: decoding output: %w", err)
	}
	return in, nil
}

// OutputsEqual reports whether two outputs are identical under the
// canonical encoding.
func OutputsEqual(a, b Output) bool {
	return bytes.Equal(MarshalOutput(a), MarshalOutput(b))
}

// Divergence describes the first point at which two replicas of a machine
// disagreed on the same input sequence.
type Divergence struct {
	Step   int    // index of the offending input
	Detail string // human-readable diff summary
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("sm: replicas diverged at step %d: %s", d.Step, d.Detail)
}

// CheckDeterminism drives two fresh instances from factory through inputs
// and returns a *Divergence error describing the first disagreement, or nil
// if the instances agree everywhere. It is the test harness for R1.
func CheckDeterminism(factory func() Machine, inputs []Input) error {
	a, b := factory(), factory()
	for i, in := range inputs {
		outA, outB := a.Step(in), b.Step(in)
		if len(outA) != len(outB) {
			return &Divergence{Step: i, Detail: fmt.Sprintf("output counts %d vs %d", len(outA), len(outB))}
		}
		for j := range outA {
			if !OutputsEqual(outA[j], outB[j]) {
				return &Divergence{
					Step:   i,
					Detail: fmt.Sprintf("output %d: kind %q to %v vs kind %q to %v", j, outA[j].Kind, outA[j].To, outB[j].Kind, outB[j].To),
				}
			}
		}
	}
	return nil
}
