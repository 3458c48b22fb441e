package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"fsnewtop/transport"
)

// ledger is what the traced run counts: per message kind at the
// decorator, in the backend's own accounting, in the signature memo and in
// the Go runtime. All fields only grow, so the difference of two readings
// is what happened between them, and readings of separate sessions add.
type ledger struct {
	kinds                               map[string]kindTotals
	net                                 transport.Stats
	frames                              uint64
	sigHits, sigMisses                  uint64
	mallocs, allocBytes, gcPauseNs, gcs uint64
}

// plus returns a + sign·b, field by field (sign is +1 or -1).
func (a ledger) plus(b ledger, sign int64) ledger {
	add := func(x, y uint64) uint64 { return uint64(int64(x) + sign*int64(y)) }
	out := ledger{
		kinds: make(map[string]kindTotals),
		net: transport.Stats{
			Sent: add(a.net.Sent, b.net.Sent), Delivered: add(a.net.Delivered, b.net.Delivered),
			Dropped: add(a.net.Dropped, b.net.Dropped), Blocked: add(a.net.Blocked, b.net.Blocked),
			Bytes: add(a.net.Bytes, b.net.Bytes),
		},
		frames:  add(a.frames, b.frames),
		sigHits: add(a.sigHits, b.sigHits), sigMisses: add(a.sigMisses, b.sigMisses),
		mallocs: add(a.mallocs, b.mallocs), allocBytes: add(a.allocBytes, b.allocBytes),
		gcPauseNs: add(a.gcPauseNs, b.gcPauseNs), gcs: add(a.gcs, b.gcs),
	}
	for kind, kt := range a.kinds {
		out.kinds[kind] = kt
	}
	for kind, kt := range b.kinds {
		x := out.kinds[kind]
		out.kinds[kind] = kindTotals{
			Sends: add(x.Sends, kt.Sends), SendBytes: add(x.SendBytes, kt.SendBytes), SendBusyNs: add(x.SendBusyNs, kt.SendBusyNs),
			Handled: add(x.Handled, kt.Handled), HandlerBusyNs: add(x.HandlerBusyNs, kt.HandlerBusyNs),
		}
	}
	return out
}

// snapshot is what the driver reads at an edge of the measured window.
// Untraced runs read only the clock and the process's CPU time; the
// ledger belongs to the traced run.
type snapshot struct {
	at  int64
	cpu time.Duration
	ledger
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func (s *session) snapshot() snapshot {
	sn := snapshot{at: s.now(), cpu: cpuTime()}
	if s.tracer == nil {
		return sn
	}
	sn.kinds = s.tracer.totals()
	sn.net, _ = transport.GetStats(s.tr)
	if fc, ok := s.tr.(frameCounter); ok {
		sn.frames = fc.FramesSent()
	}
	sn.sigHits, sn.sigMisses = s.c.SigCacheStats()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	sn.mallocs, sn.allocBytes, sn.gcPauseNs, sn.gcs = mem.Mallocs, mem.TotalAlloc, mem.PauseTotalNs, uint64(mem.NumGC)
	return sn
}

// steady is the outcome of one steady phase: a deployment brought up,
// warmed, and measured over one window.
type steady struct {
	spec     spec
	bringUps []time.Duration // every bring-up of this deployment, the used one last
	from, to snapshot        // edges of the measured window
	slices   []edge          // the end of each slice of the window
	tally    tally
	lateMax  int64
	verdict  verdict
	spans    []span
}

// edge is the clock and the process's CPU time at the end of a slice.
type edge struct {
	at  int64
	cpu time.Duration
}

// runSteady brings sp up sh.SetupSamples times, keeps the last deployment,
// warms it, measures it for the given time, waits for what is in flight
// and checks the outcome.
func runSteady(sh shape, sp spec, seed int64, traced bool, measure time.Duration) (*steady, error) {
	st := &steady{spec: sp}
	slice := sh.Slice
	if measure < slice {
		slice = measure
	}
	var s *session
	for i := 0; i < sh.SetupSamples; i++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = openSession(sp, seed, traced, -1); err != nil {
			return nil, err
		}
		st.bringUps = append(st.bringUps, s.bringUp)
	}
	defer s.close()

	p := newPacer(s, rand.New(rand.NewSource(seed)))
	p.runUntil(s.now() + int64(sh.WarmUp))
	st.from = s.snapshot()
	p.lateMax = 0
	s.spanning.Store(traced)
	for end := st.from.at + int64(measure); ; {
		next := st.from.at + int64(len(st.slices)+1)*int64(slice)
		if next > end {
			break
		}
		p.runUntil(next)
		st.slices = append(st.slices, edge{at: s.now(), cpu: cpuTime()})
	}
	s.spanning.Store(false)
	st.to = s.snapshot()
	st.lateMax = p.lateMax

	settled := s.waitSettled(settleTimeout)
	s.stopDrains()
	st.tally = s.tallyRecords(st.from.at, st.to.at)
	if traced {
		st.spans = s.spans()
	}
	if st.verdict = s.verify(); st.verdict.err != nil {
		return st, st.verdict.err
	}
	if !settled || st.tally.failed > 0 {
		return st, fmt.Errorf("%d of %d multicasts did not reach every member within %v", st.tally.failed, st.tally.attempted, settleTimeout)
	}
	if st.tally.completed() == 0 {
		return st, fmt.Errorf("no multicast completed inside the measured window")
	}
	return st, nil
}
