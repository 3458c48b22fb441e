package transport

import (
	"math/rand"
	"time"
)

// LatencyModel produces per-message propagation delays.
type LatencyModel interface {
	// Delay returns the next propagation delay. r is a private, seeded
	// source; models must use it (and nothing else) for randomness so that
	// runs are reproducible.
	Delay(r *rand.Rand) time.Duration
}

// Fixed is a constant-delay latency model.
type Fixed time.Duration

// Delay implements LatencyModel.
func (f Fixed) Delay(*rand.Rand) time.Duration { return time.Duration(f) }

// Uniform draws delays uniformly from [Min, Max].
type Uniform struct {
	Min, Max time.Duration
}

// Delay implements LatencyModel.
func (u Uniform) Delay(r *rand.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(r.Int63n(int64(u.Max-u.Min)+1))
}

// Normal draws delays from a normal distribution truncated at zero.
type Normal struct {
	Mean, StdDev time.Duration
}

// Delay implements LatencyModel.
func (n Normal) Delay(r *rand.Rand) time.Duration {
	d := time.Duration(r.NormFloat64()*float64(n.StdDev)) + n.Mean
	if d < 0 {
		return 0
	}
	return d
}

// Profile describes one direction of a link for fault-injecting backends.
type Profile struct {
	// Latency is the propagation-delay model. nil means zero latency.
	Latency LatencyModel
	// BytesPerSecond is the serialization bandwidth. Zero means infinite.
	BytesPerSecond int64
	// Loss is the probability in [0,1] that a message is silently dropped.
	Loss float64
}

// DelayFor computes the total delivery delay for a message of n bytes:
// one latency draw plus the serialization time at the profile's bandwidth.
func (p Profile) DelayFor(n int, r *rand.Rand) time.Duration {
	var d time.Duration
	if p.Latency != nil {
		d = p.Latency.Delay(r)
	}
	if p.BytesPerSecond > 0 {
		d += time.Duration(float64(n) / float64(p.BytesPerSecond) * float64(time.Second))
	}
	return d
}
