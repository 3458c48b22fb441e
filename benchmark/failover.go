package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// cycle is the outcome of one failover cycle: a fresh failoverSpec
// cluster, steady open-loop load, one fault on one member, and the load
// kept on schedule until every survivor serves again.
type cycle struct {
	crash   bool // leader crash; otherwise an injected fail-signal
	victim  string
	bringUp time.Duration
	// outage is injection → the moment every survivor has delivered a
	// multicast that was sent after the injection. The survivor that gets
	// there last closes the outage, and the phases end on that survivor,
	// so they add up to it: injection → the victim's pair's fail-signal
	// arrives (read at the victim's own invocation layer, one link hop
	// from the pair like every survivor) → the survivor installs the new
	// view → its first such delivery.
	outage, detect, install, resume time.Duration
	loadSeconds                     float64 // first send → last send
	cpu                             time.Duration
	tally                           tally
	lateMax                         int64
	verdict                         verdict
	ledger                          ledger // traced cycles: first send → last send
	spans                           []span
}

// runCycle runs one cycle. victim indexes the member to fault. A cycle
// that comes back with verdict.spurious set measured nothing.
func runCycle(sh shape, seed int64, traced, crash bool, victim int) (*cycle, error) {
	s, err := openSession(failoverSpec, seed, traced, victim)
	if err != nil {
		return nil, err
	}
	defer s.close()
	cy := &cycle{crash: crash, victim: s.members[victim].name, bringUp: s.bringUp}

	p := newPacer(s, rand.New(rand.NewSource(seed)))
	from := s.snapshot()
	start, cpu0 := from.at, from.cpu
	s.spanning.Store(traced)
	p.runUntil(start + int64(sh.CycleLead))

	p.silence(victim)
	injected := s.now()
	s.injectedAt.Store(injected)
	if crash {
		s.c.CrashLeader(cy.victim)
	} else {
		s.c.InjectFailSignal(cy.victim)
	}

	// Keep the survivors on schedule through the outage, looking every
	// couple of milliseconds whether it has closed.
	var closer *member
	for closer == nil && s.now() < injected+int64(outageLimit) && s.spuriousSignal() == "" {
		p.runUntil(s.now() + int64(2*time.Millisecond))
		closer = s.outageCloser()
	}
	if closer != nil {
		p.runUntil(s.now() + int64(sh.CycleTail))
	}
	to := s.snapshot()
	end := to.at
	cy.cpu = to.cpu - cpu0
	cy.ledger = to.ledger.plus(from.ledger, -1)
	cy.loadSeconds = float64(end-start) / 1e9
	cy.lateMax = p.lateMax

	settled := s.waitSettled(settleTimeout)
	s.stopDrains()
	cy.tally = s.tallyRecords(start, end)
	if traced {
		cy.spans = s.spans()
	}
	cy.verdict = s.verify()
	what := fmt.Sprintf("failover cycle (seed %d, victim %s, crash %v)", seed, cy.victim, crash)
	switch {
	case cy.verdict.spurious != "":
		return cy, nil
	case cy.verdict.err != nil:
		return cy, fmt.Errorf("%s: %w", what, cy.verdict.err)
	case closer == nil:
		return cy, fmt.Errorf("%s: survivors did not resume within %v", what, outageLimit)
	case !settled || cy.tally.failed > 0:
		return cy, fmt.Errorf("%s: %d of %d multicasts did not reach every survivor within %v", what, cy.tally.failed, cy.tally.attempted, settleTimeout)
	}

	resumed := closer.firstPost.Load()
	sawSignal, sawView := s.victimSignal(), resumed
	for _, v := range closer.views {
		if len(v.view.Members) != len(s.members) && v.at < sawView {
			sawView = v.at
		}
	}
	// Two drains stamped these; on a busy host the view can be stamped a
	// few microseconds before the fail-signal that caused it.
	if sawSignal > sawView {
		sawSignal = sawView
	}
	cy.outage = time.Duration(resumed - injected)
	cy.detect = time.Duration(sawSignal - injected)
	cy.install = time.Duration(sawView - sawSignal)
	cy.resume = time.Duration(resumed - sawView)
	return cy, nil
}

// outageCloser returns the survivor whose first delivery of a
// post-injection multicast came last, once every survivor has one.
func (s *session) outageCloser() *member {
	var last *member
	for _, m := range s.live() {
		at := m.firstPost.Load()
		if at == 0 {
			return nil
		}
		if last == nil || at > last.firstPost.Load() {
			last = m
		}
	}
	return last
}

// failover is the outcome of a failover phase.
type failover struct {
	cycles []*cycle
	// discarded lists the cycles in which a member nobody faulted
	// fail-signalled: "seed N: members".
	discarded []string
}

// runFailover runs rounds of one leader-crash cycle and SignalsPerCrash
// fail-signal cycles, victims in seeded order, for as long as another
// round fits the time and at least MinRounds of them. A cycle in which an
// unfaulted member fail-signals is discarded and does not count; more
// than a few of those invalidate the run.
func runFailover(sh shape, seed int64, traced bool, budget time.Duration) (*failover, error) {
	victims := rand.New(rand.NewSource(seed)).Perm(failoverSpec.Members)
	fo := &failover{}
	start := time.Now()
	fits := func(rounds int) bool {
		used := time.Since(start)
		return used+used/time.Duration(rounds) <= budget
	}
	n := 0 // cycles started, discarded ones too: each gets its own seed and victim
	for round := 0; round < sh.MinRounds || fits(round); round++ {
		for k := 0; k <= sh.SignalsPerCrash; {
			cy, err := runCycle(sh, seed+int64(n), traced, k == 0, victims[n%len(victims)])
			n++
			if err != nil {
				return fo, err
			}
			if cy.verdict.spurious != "" {
				fo.discarded = append(fo.discarded, fmt.Sprintf("seed %d: %s", seed+int64(n-1), cy.verdict.spurious))
				if limit := maxDiscardedShare * float64(n); len(fo.discarded) > 1 && float64(len(fo.discarded)) > limit {
					return fo, fmt.Errorf("%d of %d failover cycles had an unfaulted member fail-signal (%v)", len(fo.discarded), n, fo.discarded)
				}
				continue
			}
			if len(fo.cycles) >= 2 {
				cy.spans = nil // the first two cycles' spans are enough for the span file
			}
			fo.cycles = append(fo.cycles, cy)
			k++
		}
	}
	return fo, nil
}

// medianCycle picks the cycle of one kind with the median outage (the
// upper of the middle two when their number is even). Phases are read
// from that one cycle, so they add up to its outage.
func (fo *failover) medianCycle(crash bool) *cycle {
	var of []*cycle
	for _, cy := range fo.cycles {
		if cy.crash == crash {
			of = append(of, cy)
		}
	}
	if len(of) == 0 {
		return nil
	}
	sort.Slice(of, func(i, j int) bool { return of[i].outage < of[j].outage })
	return of[len(of)/2]
}
