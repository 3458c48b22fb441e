package main

// metricDef declares one metric: the name later issues refer to, its
// unit, which direction is better and, for end-to-end metrics, the share
// of the parent's median by which it may worsen before a change is
// refused. BENCHMARK.json repeats these tables; the smoke test holds the
// two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the group sees. Every workload reports every
// one of them: the first four from its steady window on its own
// deployment, the two outages from its failover phase.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"order_latency_p50_ms", "ms", lower, 0.25},
	{"ordered_multicasts_per_s", "1/s", higher, 0.25},
	{"cpu_s_per_1k_multicasts", "s", lower, 0.25},
	{"outage_crash_ms", "ms", lower, 0.10},
	{"outage_signal_ms", "ms", lower, 0.25},
}

// perLayer is the cost ledger: first what the traced run counts at the
// transport boundary and around the public API, per completed multicast
// unless the name says otherwise, then what the layer probes time with no
// cluster running.
var perLayer = []metricDef{
	{"transport.msgs_per_multicast", "count", lower, 0},
	{"transport.bytes_per_multicast", "B", lower, 0},
	{"transport.frames_per_multicast", "count", lower, 0},
	{"transport.send_busy_us_per_multicast", "us", lower, 0},
	{"transport.dropped", "count", lower, 0},
	{"transport.wire_amplification", "ratio", lower, 0},
	{"core.sync_msgs_per_multicast", "count", lower, 0},
	{"core.sync_bytes_per_multicast", "B", lower, 0},
	{"core.new_msgs_per_multicast", "count", lower, 0},
	{"core.handler_busy_us_per_multicast", "us", lower, 0},
	{"fsnewtop.out_msgs_per_multicast", "count", lower, 0},
	{"fsnewtop.handler_busy_us_per_multicast", "us", lower, 0},
	{"cluster.submit_us_p50", "us", lower, 0},
	{"orb.request_msgs_per_multicast", "count", lower, 0},
	{"orb.handler_busy_us_per_multicast", "us", lower, 0},
	{"sig.verify_miss_per_multicast", "count", lower, 0},
	{"sig.verify_hit_per_multicast", "count", lower, 0},
	{"sig.memo_hit_ratio", "ratio", higher, 0},
	{"cluster.delivery_skew_ms_p50", "ms", lower, 0},
	{"cluster.bringup_ms", "ms", lower, 0},
	{"core.failsignal_detect_ms_crash", "ms", lower, 0},
	{"core.failsignal_detect_ms_signal", "ms", lower, 0},
	{"group.view_install_ms", "ms", lower, 0},
	{"group.resume_ms", "ms", lower, 0},
	{"driver.outage_crash_ms", "ms", lower, 0},
	{"driver.outage_signal_ms", "ms", lower, 0},
	{"driver.order_latency_p90_ms", "ms", lower, 0},
	{"driver.order_latency_p99_ms", "ms", lower, 0},
	{"driver.order_latency_max_ms", "ms", lower, 0},
	{"driver.late_ms_max", "ms", lower, 0},
	{"driver.closed_latency_p50_ms", "ms", lower, 0},
	{"driver.order_displaced_multicasts", "count", lower, 0},
	{"driver.failover_cycles_discarded", "count", lower, 0},
	{"proc.allocs_per_multicast", "count", lower, 0},
	{"proc.alloc_bytes_per_multicast", "B", lower, 0},
	{"proc.gc_pause_ms_total", "ms", lower, 0},
	{"proc.peak_rss_mb", "MB", lower, 0},
	{"trace.overhead_share", "ratio", lower, 0},

	{"sig.hmac_sign_us_16", "us", lower, 0},
	{"sig.hmac_verify_us_16", "us", lower, 0},
	{"sig.hmac_verify_us_8k", "us", lower, 0},
	{"sig.countersign_us", "us", lower, 0},
	{"sig.double_verify_us", "us", lower, 0},
	{"sig.cached_verify_hit_ns", "ns", lower, 0},
	{"sig.rsa_sign_us", "us", lower, 0},
	{"sig.rsa_verify_us", "us", lower, 0},
	{"codec.roundtrip_ns_16", "ns", lower, 0},
	{"codec.roundtrip_us_8k", "us", lower, 0},
	{"codec.allocs_per_roundtrip", "count", lower, 0},
	{"group.step_us_n4", "us", lower, 0},
	{"group.step_us_n10", "us", lower, 0},
	{"group.steps_per_multicast_n10", "count", lower, 0},
	{"group.outputs_per_multicast_n10", "count", lower, 0},
	{"group.allocs_per_step", "count", lower, 0},
	{"core.pair_round_us", "us", lower, 0},
	{"core.pair_rounds_per_s", "1/s", higher, 0},
	{"core.pair_msgs_per_round", "count", lower, 0},
	{"orb.oneway_us", "us", lower, 0},
	{"netsim.send_to_handler_us", "us", lower, 0},
	{"netsim.fanout_msgs_per_s", "1/s", higher, 0},
	{"tcpnet.send_to_handler_us_16", "us", lower, 0},
	{"tcpnet.msgs_per_s_16", "1/s", higher, 0},
	{"tcpnet.mb_per_s_8k", "MB/s", higher, 0},
}
