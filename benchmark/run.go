package main

import (
	"fmt"
	"slices"
	"time"
)

// value is one reported metric. Samples is how many measurements the
// value is the median (or the quotient) of.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// outcome is one run of one workload.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Error     string           `json:"error,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	// Displaced counts multicasts that two live members delivered at
	// different positions, DisplacementMax how far apart at most (see
	// orderSlack); Discarded lists the failover cycles that were thrown
	// away because an unfaulted member fail-signalled.
	Displaced       int      `json:"order_displaced_multicasts"`
	DisplacementMax int      `json:"order_displacement_max"`
	Discarded       []string `json:"failover_cycles_discarded,omitempty"`
	// Cycles lists the failover cycles in the order they ran, Slices the
	// slices of the steady window the end-to-end metrics were read from.
	Cycles []cycleReport `json:"cycles,omitempty"`
	Slices []sliceReport `json:"slices,omitempty"`

	spans []span
}

type cycleReport struct {
	Fault     string  `json:"fault"`
	Victim    string  `json:"victim"`
	OutageMs  float64 `json:"outage_ms"`
	DetectMs  float64 `json:"detect_ms"`
	InstallMs float64 `json:"view_install_ms"`
	ResumeMs  float64 `json:"resume_ms"`
	BringUpMs float64 `json:"bringup_ms"`
}

// sliceReport is one slice of a steady window.
type sliceReport struct {
	Seconds    float64 `json:"seconds"`
	Completed  int     `json:"completed"`
	CPUSeconds float64 `json:"cpu_s"`
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runWorkload runs sp for the given measured time. A steady workload
// spends all of it in the steady window on its own deployment and then
// runs the shortest failover phase there is (sh.MinRounds rounds), only
// because every run must report every end-to-end metric; fs_failover
// spends it on failover cycles. Untraced, the run yields the end-to-end
// metrics. Traced, it runs the layer probes first, while nothing else is
// running, then measures twice for a third of the time each, untraced
// and traced — the difference is the tracing overhead — and reads the
// per-layer counts off the traced part.
func runWorkload(sh shape, sp spec, seed int64, measure time.Duration, traced bool) *outcome {
	out := &outcome{Metrics: make(map[string]value)}
	fail := func(err error) *outcome {
		out.Error = err.Error()
		return out
	}
	// window is the workload's own measurement: one steady window, or on
	// fs_failover cycles for the same time (then the steady is nil, and
	// otherwise the failover, which the caller runs behind the window).
	window := func(traced bool, measure time.Duration) (*steady, *failover, error) {
		if sp.CyclesOnly {
			fo, err := runFailover(sh, seed, traced, measure)
			out.countCycles(fo)
			return nil, fo, err
		}
		st, err := runSteady(sh, sp, seed, traced, measure)
		out.count(st)
		return st, nil, err
	}

	if !traced {
		st, fo, err := window(false, measure)
		if err == nil && fo == nil {
			fo, err = runFailover(sh, seed, false, 0)
			out.countCycles(fo)
		}
		if err != nil {
			return fail(err)
		}
		out.endToEnd(st, fo)
		out.Correct = true
		return out
	}

	probes, err := layerProbes(sh.ProbeScale)
	if err != nil {
		return fail(err)
	}
	for name, v := range probes {
		out.set(name, v, probeRepeats)
	}
	base, baseFo, err := window(false, measure/3)
	if err != nil {
		return fail(err)
	}
	out.Cycles = nil // the result file lists the traced cycles
	st, fo, err := window(true, measure/3)
	if err == nil && fo == nil {
		fo, err = runFailover(sh, seed, true, 0)
		out.countCycles(fo)
	}
	if err != nil {
		return fail(err)
	}
	out.layers(base, st, baseFo, fo)
	out.Correct = true
	return out
}

func (o *outcome) set(name string, v float64, samples int) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				o.Metrics[name] = value{Value: v, Unit: d.Unit, Samples: samples}
				return
			}
		}
	}
	panic("benchmark: undeclared metric " + name)
}

func (o *outcome) count(st *steady) {
	if st != nil {
		o.Attempted += st.tally.attempted
		o.Failed += st.tally.failed
		o.countVerdict(st.verdict)
		o.spans = append(o.spans, st.spans...)
	}
}

func (o *outcome) countVerdict(v verdict) {
	o.Displaced += v.displaced
	if v.displacementMax > o.DisplacementMax {
		o.DisplacementMax = v.displacementMax
	}
}

func (o *outcome) countCycles(fo *failover) {
	o.Discarded = append(o.Discarded, fo.discarded...)
	for _, cy := range fo.cycles {
		o.Attempted += cy.tally.attempted
		o.Failed += cy.tally.failed
		o.countVerdict(cy.verdict)
		o.spans = append(o.spans, cy.spans...)
		fault := "fail-signal"
		if cy.crash {
			fault = "leader-crash"
		}
		o.Cycles = append(o.Cycles, cycleReport{
			Fault: fault, Victim: cy.victim, OutageMs: ms(cy.outage), DetectMs: ms(cy.detect),
			InstallMs: ms(cy.install), ResumeMs: ms(cy.resume), BringUpMs: ms(cy.bringUp),
		})
	}
}

// sliceReports reads the steady window slice by slice.
func (st *steady) sliceReports() []sliceReport {
	var out []sliceReport
	done := st.tally.completions
	prev := edge{at: st.from.at, cpu: st.from.cpu}
	i := 0
	for _, e := range st.slices {
		n := 0
		for ; i < len(done) && done[i] < e.at; i++ {
			n++
		}
		out = append(out, sliceReport{Seconds: float64(e.at-prev.at) / 1e9, Completed: n, CPUSeconds: (e.cpu - prev.cpu).Seconds()})
		prev = e
	}
	return out
}

// sliceRates turns the slices in which anything completed into completed
// multicasts per second and CPU seconds per thousand completed.
func sliceRates(reports []sliceReport) (perSecond, cpuPer1k []float64) {
	for _, r := range reports {
		if r.Completed > 0 {
			perSecond = append(perSecond, float64(r.Completed)/r.Seconds)
			cpuPer1k = append(cpuPer1k, r.CPUSeconds/float64(r.Completed)*1000)
		}
	}
	return perSecond, cpuPer1k
}

// pooled is the cycles' load taken together, as one steady window would
// be: every latency sample, completions over load time, CPU over
// completions.
func (fo *failover) pooled() (latencies []int64, perSecond, cpuPer1k float64, lateMax int64) {
	var completed int
	var seconds, cpu float64
	for _, cy := range fo.cycles {
		latencies = append(latencies, cy.tally.latencies...)
		completed += cy.tally.completed()
		seconds += cy.loadSeconds
		cpu += cy.cpu.Seconds()
		if cy.lateMax > lateMax {
			lateMax = cy.lateMax
		}
	}
	slices.Sort(latencies)
	return latencies, float64(completed) / seconds, cpu / float64(completed) * 1000, lateMax
}

// outages lists one fault kind's outages, in milliseconds.
func (fo *failover) outages(crash bool) []float64 {
	var v []float64
	for _, cy := range fo.cycles {
		if cy.crash == crash {
			v = append(v, ms(cy.outage))
		}
	}
	return v
}

func secondsOf(ds []time.Duration) []float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = d.Seconds()
	}
	return v
}

// endToEnd fills the six end-to-end metrics. st is nil for a workload
// with no steady window: its load is the cycles' own.
func (o *outcome) endToEnd(st *steady, fo *failover) {
	if st != nil {
		o.Slices = st.sliceReports()
		rates, cpus := sliceRates(o.Slices)
		o.set("setup_s", median(secondsOf(st.bringUps)), len(st.bringUps))
		o.set("order_latency_p50_ms", quantile(st.tally.latencies, 0.5)/1e6, len(st.tally.latencies))
		o.set("ordered_multicasts_per_s", median(rates), len(rates))
		o.set("cpu_s_per_1k_multicasts", median(cpus), len(cpus))
	} else {
		var ups []time.Duration
		for _, cy := range fo.cycles {
			ups = append(ups, cy.bringUp)
		}
		lat, rate, cpu, _ := fo.pooled()
		o.set("setup_s", median(secondsOf(ups)), len(ups))
		o.set("order_latency_p50_ms", quantile(lat, 0.5)/1e6, len(lat))
		o.set("ordered_multicasts_per_s", rate, len(fo.cycles))
		o.set("cpu_s_per_1k_multicasts", cpu, len(fo.cycles))
	}
	crash, signal := fo.outages(true), fo.outages(false)
	o.set("outage_crash_ms", median(crash), len(crash))
	o.set("outage_signal_ms", median(signal), len(signal))
}

// layers fills the per-layer metrics from the traced steady window st
// (nil for a workload without one, whose ledger is its cycles') and the
// traced cycles fo; base and baseFo are their untraced twins, for the
// overhead.
func (o *outcome) layers(base, st *steady, baseFo, fo *failover) {
	var ups []time.Duration
	var led ledger
	var t tally
	var lateMax int64
	payload := failoverSpec.PayloadBytes
	if st != nil {
		ups, led, t, lateMax, payload = st.bringUps, st.to.ledger.plus(st.from.ledger, -1), st.tally, st.lateMax, st.spec.PayloadBytes
		// A closed loop shows the decorator's cost as throughput, an open
		// loop as latency.
		if st.spec.Loop == "closed" {
			with, _ := sliceRates(st.sliceReports())
			without, _ := sliceRates(base.sliceReports())
			o.set("trace.overhead_share", 1-median(with)/median(without), len(with))
			o.set("driver.closed_latency_p50_ms", quantile(t.latencies, 0.5)/1e6, len(t.latencies))
		} else {
			o.set("trace.overhead_share", quantile(t.latencies, 0.5)/quantile(base.tally.latencies, 0.5)-1, len(t.latencies))
		}
	} else {
		// No steady window: the ledger is the cycles' own, bring-up excluded
		// and the fault and the view change included.
		for _, cy := range fo.cycles {
			ups = append(ups, cy.bringUp)
			led = led.plus(cy.ledger, +1)
			t.completions = append(t.completions, cy.tally.completions...)
			t.submits = append(t.submits, cy.tally.submits...)
			t.skews = append(t.skews, cy.tally.skews...)
		}
		slices.Sort(t.submits)
		slices.Sort(t.skews)
		t.latencies, _, _, lateMax = fo.pooled()
		without, _, _, _ := baseFo.pooled()
		o.set("trace.overhead_share", quantile(t.latencies, 0.5)/quantile(without, 0.5)-1, len(t.latencies))
	}

	n := t.completed()
	per := func(total uint64) float64 { return float64(total) / float64(n) }
	var sendBusy, coreBusy, orbBusy, orbMsgs uint64
	for kind, kt := range led.kinds {
		sendBusy += kt.SendBusyNs
		switch layerOf(kind) {
		case "core":
			coreBusy += kt.HandlerBusyNs
		case "orb":
			orbBusy += kt.HandlerBusyNs
			orbMsgs += kt.Sends
		}
	}
	k := led.kinds
	o.set("transport.msgs_per_multicast", per(led.net.Sent), n)
	o.set("transport.bytes_per_multicast", per(led.net.Bytes), n)
	o.set("transport.frames_per_multicast", per(led.frames), n)
	o.set("transport.send_busy_us_per_multicast", per(sendBusy)/1e3, n)
	o.set("transport.dropped", float64(led.net.Dropped), n)
	o.set("transport.wire_amplification", per(led.net.Bytes)/float64(payload), n)
	o.set("core.sync_msgs_per_multicast", per(k["fs.fwd"].Sends+k["fs.single"].Sends), n)
	o.set("core.sync_bytes_per_multicast", per(k["fs.fwd"].SendBytes+k["fs.single"].SendBytes), n)
	o.set("core.new_msgs_per_multicast", per(k["fs.new"].Sends), n)
	o.set("core.handler_busy_us_per_multicast", per(coreBusy)/1e3, n)
	o.set("fsnewtop.out_msgs_per_multicast", per(k["fs.out"].Sends), n)
	o.set("fsnewtop.handler_busy_us_per_multicast", per(k["fs.out"].HandlerBusyNs)/1e3, n)
	o.set("orb.request_msgs_per_multicast", per(orbMsgs), n)
	o.set("orb.handler_busy_us_per_multicast", per(orbBusy)/1e3, n)
	o.set("sig.verify_miss_per_multicast", per(led.sigMisses), n)
	o.set("sig.verify_hit_per_multicast", per(led.sigHits), n)
	ratio := 0.0
	if led.sigHits+led.sigMisses > 0 {
		ratio = float64(led.sigHits) / float64(led.sigHits+led.sigMisses)
	}
	o.set("sig.memo_hit_ratio", ratio, int(led.sigHits+led.sigMisses))
	o.set("cluster.submit_us_p50", quantile(t.submits, 0.5)/1e3, len(t.submits))
	o.set("cluster.delivery_skew_ms_p50", quantile(t.skews, 0.5)/1e6, len(t.skews))
	o.set("cluster.bringup_ms", median(secondsOf(ups))*1e3, len(ups))
	o.set("proc.allocs_per_multicast", per(led.mallocs), n)
	o.set("proc.alloc_bytes_per_multicast", per(led.allocBytes), n)
	o.set("proc.gc_pause_ms_total", float64(led.gcPauseNs)/1e6, int(led.gcs))
	o.set("proc.peak_rss_mb", peakRSSMB(), 1)
	o.set("driver.order_latency_p90_ms", quantile(t.latencies, 0.9)/1e6, len(t.latencies))
	o.set("driver.order_latency_p99_ms", quantile(t.latencies, 0.99)/1e6, len(t.latencies))
	o.set("driver.order_latency_max_ms", quantile(t.latencies, 1)/1e6, len(t.latencies))
	o.set("driver.late_ms_max", float64(lateMax)/1e6, len(t.latencies))
	o.set("driver.order_displaced_multicasts", float64(o.Displaced), o.Attempted)
	o.set("driver.failover_cycles_discarded", float64(len(o.Discarded)), len(fo.cycles)+len(o.Discarded))

	// The phases are read off the cycle with the median outage of each
	// kind, so that they add up to an outage that was observed: detection
	// per kind, and the two phases the kinds share from the fail-signal
	// cycle, whose outage has nothing else in it.
	crash, signal := fo.medianCycle(true), fo.medianCycle(false)
	o.set("driver.outage_crash_ms", ms(crash.outage), len(fo.outages(true)))
	o.set("driver.outage_signal_ms", ms(signal.outage), len(fo.outages(false)))
	o.set("core.failsignal_detect_ms_crash", ms(crash.detect), 1)
	o.set("core.failsignal_detect_ms_signal", ms(signal.detect), 1)
	o.set("group.view_install_ms", ms(signal.install), 1)
	o.set("group.resume_ms", ms(signal.resume), 1)

	// An open loop has no closed-loop latency.
	if _, ok := o.Metrics["driver.closed_latency_p50_ms"]; !ok {
		o.set("driver.closed_latency_p50_ms", 0, 0)
	}
}

// String renders the outcome for a reader: every metric by name, with its
// unit and sample count, in declaration order.
func (o *outcome) String() string {
	s := ""
	if o.Displaced > 0 {
		s += fmt.Sprintf("  NOTE: %d multicasts were delivered at different positions by different members (by up to %d; see orderSlack in verify.go)\n", o.Displaced, o.DisplacementMax)
	}
	for _, d := range o.Discarded {
		s += fmt.Sprintf("  NOTE: discarded a failover cycle in which an unfaulted member fail-signalled (%s)\n", d)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := o.Metrics[d.Name]; ok {
				s += fmt.Sprintf("  %-42s %14.4f %-6s (n=%d)\n", d.Name, v.Value, v.Unit, v.Samples)
			}
		}
	}
	return s
}
