package main

// metricDef is one row of the metric registry. BENCHMARK.json at the
// repository root declares the same rows; a test holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported per
// workload from the untraced reps. The bounds are sized for the
// pipeline's comparison — medians of ten runs, each on another seed, on
// a shared machine whose speed drifts by tens of percent over minutes
// (README, "End-to-end metrics"). On one seed the virtual ones (lat_*)
// repeat exactly and host_allocs_per_req to four digits; -aa holds
// them to that.
var endToEnd = []metricDef{
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.03},
	{Name: "lat_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sim_req_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "host_cpu_us_per_req", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "host_allocs_per_req", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// virtualMetrics repeat exactly for a seed: two runs of one commit on
// one seed must agree to the last digit.
var virtualMetrics = map[string]bool{"lat_p50_ms": true, "lat_p99_ms": true}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// probePair is the ns and allocs rows of one host-clock probe.
func probePair(name string) []metricDef {
	return []metricDef{lower(name+"_ns", "ns"), lower(name+"_allocs", "count")}
}

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// perLayer are the single-layer metrics of the traced run, layer by
// layer (the prefix is the internal/ package name). "better" says which
// way a change that helps would move the number; none has a bound.
var perLayer = concat(
	// The two end-to-end figures that cannot carry a relative bound: a
	// failure fraction that is 0 when all is well, and a rate ladder
	// whose steps are 33 % apart.
	[]metricDef{
		lower("fail_frac", "fraction"),
		higher("sustained_rate_rps", "1/s"),
	},
	[]metricDef{
		lower("sim.events_per_req", "count"),
		higher("sim.events_per_host_s", "1/s"),
		higher("sim.virt_s_per_host_s", "ratio"),
		lower("sim.max_pending", "count"),
	},
	probePair("sim.probe.sched_pop"),
	[]metricDef{lower("sim.probe.cancel_ns", "ns")},

	[]metricDef{
		lower("netsim.frames_per_req", "count"),
		lower("netsim.drops", "count"),
	},
	probePair("netsim.probe.link_frame"),
	probePair("netsim.probe.bridge_frame"),

	[]metricDef{
		lower("netstack.pkts_per_req", "count"),
		lower("netstack.rx_dropped", "count"),
		lower("netstack.arp_retries", "count"),
		lower("netstack.http_ms_p50", "ms"),
	},
	probePair("netstack.probe.udp_rt"),
	probePair("netstack.probe.tcp_conn"),
	probePair("netstack.probe.http_get"),

	[]metricDef{
		lower("dns.queries_per_req", "count"),
		higher("dns.cache_hit_ratio", "ratio"),
		lower("dns.epoch_bumps", "count"),
		lower("dns.resolve_ms_p50", "ms"),
	},
	probePair("dns.probe.serve_hit"),
	probePair("dns.probe.serve_miss"),
	probePair("dns.probe.codec"),

	[]metricDef{
		lower("xenstore.ops_per_req", "count"),
		lower("xenstore.commits_per_req", "count"),
		lower("xenstore.conflict_ratio", "ratio"),
		lower("xenstore.watch_events_per_req", "count"),
	},
	probePair("xenstore.probe.tx_n100"),
	probePair("xenstore.probe.tx_n1k"),
	probePair("xenstore.probe.tx_n10k"),
	[]metricDef{lower("xenstore.probe.read_ns", "ns")},
	probePair("xenstore.probe.conflict_replay"),

	[]metricDef{
		lower("xen.launches_per_req", "count"),
		lower("xen.tx_retries", "count"),
		lower("xen.build_ms_p50", "ms"),
	},
	probePair("xen.probe.create_destroy_r0"),
	probePair("xen.probe.create_destroy_r32"),

	[]metricDef{
		lower("unikernel.netup_ms_p50", "ms"),
		lower("unikernel.ready_ms_p50", "ms"),
	},

	[]metricDef{
		lower("core.cold_start_ratio", "ratio"),
		lower("core.reaps", "count"),
		lower("core.servfails", "count"),
		higher("core.syn_handoffs_per_cold", "ratio"),
		lower("core.boot_ms_p50", "ms"),
		lower("core.boot_ms_p95", "ms"),
		lower("core.coldstart_anchor_err_pct", "%"),
	},
	probePair("core.probe.register"),

	[]metricDef{
		higher("cluster.warm_hit_ratio", "ratio"),
		lower("cluster.preempts", "count"),
		lower("cluster.migrations", "count"),
		lower("cluster.gossip_probes_per_virt_s", "1/s"),
		lower("cluster.suspects", "count"),
		lower("cluster.root_lookups_per_req", "count"),
		higher("cluster.root_deleg_hit_ratio", "ratio"),
		lower("cluster.root_scans", "count"),
		lower("cluster.deleg_retx", "count"),
		lower("cluster.spills", "count"),
		lower("cluster.cross_migrations", "count"),
		lower("cluster.chunks", "count"),
		lower("cluster.chunk_retx", "count"),
		lower("cluster.delegation_ms_p50", "ms"),
		lower("cluster.delegation_ms_p95", "ms"),
		lower("cluster.transfer_ms_p50", "ms"),
	},
	probePair("cluster.probe.place"),
	probePair("cluster.probe.stats"),

	[]metricDef{
		higher("cc.acks", "count"),
		lower("cc.timeouts", "count"),
		lower("cc.losses", "count"),
	},
	probePair("cc.probe.acquire_ack"),

	[]metricDef{
		lower("wire.frames_per_verb", "count"),
		lower("wire.event_frames", "count"),
		lower("wire.unauthorized", "count"),
		lower("wire.proto_errs", "count"),
	},
	probePair("wire.probe.encode_register"),
	probePair("wire.probe.decode_register"),
	probePair("wire.probe.stats_roundtrip"),

	[]metricDef{lower("obs.trace_overhead_frac", "fraction")},
	probePair("obs.probe.snapshot"),
	probePair("obs.probe.span"),

	[]metricDef{
		lower("blockdev.reads", "count"),
		lower("blockdev.writes", "count"),
	},

	[]metricDef{
		lower("host.alloc_kb_per_req", "KiB"),
		lower("host.gc_cycles", "count"),
		lower("host.peak_heap_mb", "MiB"),
	},
)
