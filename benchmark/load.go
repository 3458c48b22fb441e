package main

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// pacer is the one goroutine that offers load: it issues every member's
// sends from one schedule (open loop) or as slots come back (closed
// loop). It sleeps between sends and never spins.
type pacer struct {
	s        *session
	interval int64   // open loop: nanoseconds between one member's sends
	next     []int64 // open loop: each member's next due time
	// lateMax is how late the open loop has run at worst since the caller
	// last reset it: a send's actual time minus its due time.
	lateMax int64
}

// newPacer starts every member's schedule at a seeded phase offset (open
// loop) or hands every member its slots (closed loop).
func newPacer(s *session, rng *rand.Rand) *pacer {
	p := &pacer{s: s}
	if s.spec.Loop == "open" {
		p.interval = int64(time.Second) / int64(s.spec.RatePerMember)
		start := s.now()
		for range s.members {
			p.next = append(p.next, start+rng.Int63n(p.interval))
		}
		return p
	}
	for i := range s.members {
		for k := 0; k < s.spec.Outstanding; k++ {
			s.free <- i
		}
	}
	return p
}

// silence takes member idx off the open-loop schedule.
func (p *pacer) silence(idx int) { p.next[idx] = math.MaxInt64 }

// runUntil offers load until the session clock reads limit.
func (p *pacer) runUntil(limit int64) {
	if p.s.spec.Loop == "closed" {
		timer := time.NewTimer(time.Duration(limit - p.s.now()))
		defer timer.Stop()
		for {
			select {
			case idx := <-p.s.free:
				p.s.send(idx, p.s.now(), true)
			case <-timer.C:
				return
			}
		}
	}
	for {
		idx := 0
		for i, due := range p.next {
			if due < p.next[idx] {
				idx = i
			}
		}
		due := p.next[idx]
		if due >= limit {
			time.Sleep(time.Duration(limit - p.s.now()))
			return
		}
		time.Sleep(time.Duration(due - p.s.now()))
		if late := p.s.now() - due; late > p.lateMax {
			p.lateMax = late
		}
		p.s.send(idx, due, false)
		p.next[idx] += p.interval
	}
}

// tally is what the records say about the multicasts of one interval.
type tally struct {
	attempted, failed int
	// completions are the instants at which the last live member delivered
	// a multicast, for those that fall inside the interval.
	completions []int64
	// latencies are due → own delivery, for multicasts due inside the
	// interval; skews are first → last member's delivery of the same;
	// submits are the times spent inside Member.Multicast.
	latencies, skews, submits []int64
}

// completed counts the multicasts that completed inside the interval.
func (t tally) completed() int { return len(t.completions) }

// tallyRecords reads the settled records. attempted and failed cover the
// whole session; the rest covers [t0, t1), in nanoseconds, sorted.
func (s *session) tallyRecords(t0, t1 int64) tally {
	var t tally
	need := int32(len(s.live()))
	for _, m := range s.members {
		m.mu.Lock()
		for i := range m.recs {
			r := &m.recs[i]
			if m.idx == s.victim && r.n == 0 && !r.refused {
				continue // lost with its sender: not owed, see unsettled
			}
			t.attempted++
			if r.refused || r.n < need {
				t.failed++
				continue
			}
			if r.last >= t0 && r.last < t1 {
				t.completions = append(t.completions, r.last)
			}
			if r.due >= t0 && r.due < t1 && r.own != 0 {
				t.latencies = append(t.latencies, r.own-r.due)
				t.skews = append(t.skews, r.last-r.first)
				t.submits = append(t.submits, r.submitNs)
			}
		}
		m.mu.Unlock()
	}
	for _, v := range [][]int64{t.completions, t.latencies, t.skews, t.submits} {
		slices.Sort(v)
	}
	return t
}

// quantile reads the q-quantile of sorted samples (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// median of unsorted float samples; the mean of the middle two when even.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
