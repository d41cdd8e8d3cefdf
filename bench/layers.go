package main

import (
	"time"

	"jitsu/internal/core"
	"jitsu/internal/sim"
)

// ratio is a/b with 0 for an empty denominator: a layer the workload
// bypasses reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianOf(reps []repResult, f func(*repResult) float64) float64 {
	vals := make([]float64, len(reps))
	for i := range reps {
		vals[i] = f(&reps[i])
	}
	_, med, _ := quartiles(vals)
	return med
}

// layerMetrics folds one workload's traced rep, its untraced reps, the
// probes and (on cold_storm) the rate ladder into every per-layer
// metric. Counts come from the traced rep — the fingerprint check has
// already shown they equal the untraced reps' — host figures from the
// untraced reps, spans from the recorder.
func layerMetrics(traced *repResult, untraced []repResult, overhead float64, probes map[string]float64, lad *ladder) map[string]float64 {
	c := func(name string) float64 { return float64(traced.counts[name]) }
	req := float64(max(traced.attempted, 1))
	p50 := func(layer, name string) float64 { return ms(pct(traced.rec.durations(layer, name), 0.50)) }
	p95 := func(layer, name string) float64 { return ms(pct(traced.rec.durations(layer, name), 0.95)) }

	m := map[string]float64{
		"fail_frac": float64(traced.firstFailed) / req,

		"sim.events_per_req": c("sim.fired") / req,
		"sim.events_per_host_s": medianOf(untraced, func(r *repResult) float64 {
			return ratio(float64(r.counts["sim.fired"]), r.wall.Seconds())
		}),
		"sim.virt_s_per_host_s": medianOf(untraced, func(r *repResult) float64 {
			return ratio(r.virt.Seconds(), r.wall.Seconds())
		}),
		"sim.max_pending": c("sim.max_pending"),

		"netsim.frames_per_req": c("netsim.frames") / req,
		"netsim.drops":          c("netsim.drops"),

		"netstack.pkts_per_req": c("netstack.pkts") / req,
		"netstack.rx_dropped":   c("netstack.rx_dropped"),
		"netstack.arp_retries":  c("netstack.arp_retries"),
		"netstack.http_ms_p50":  p50("netstack", "http.get"),

		"dns.queries_per_req": c("dns.queries") / req,
		"dns.cache_hit_ratio": ratio(c("dns.cache_hits"), c("dns.cache_hits")+c("dns.cache_misses")),
		"dns.epoch_bumps":     c("dns.epoch_bumps"),
		"dns.resolve_ms_p50":  p50("dns", "dns.query"),

		"xenstore.ops_per_req":          c("xenstore.ops") / req,
		"xenstore.commits_per_req":      c("xenstore.commits") / req,
		"xenstore.conflict_ratio":       ratio(c("xenstore.conflicts"), c("xenstore.commits")+c("xenstore.conflicts")),
		"xenstore.watch_events_per_req": c("xenstore.watch_events") / req,

		"xen.launches_per_req": c("xen.launches") / req,
		"xen.tx_retries":       c("xen.tx_retries"),
		"xen.build_ms_p50":     p50("xen", "xen.build"),

		"unikernel.netup_ms_p50": p50("unikernel", "unikernel.netup"),
		"unikernel.ready_ms_p50": p50("unikernel", "unikernel.ready"),

		"core.cold_start_ratio":      c("core.cold_starts") / req,
		"core.reaps":                 c("core.reaps"),
		"core.servfails":             c("core.servfails"),
		"core.syn_handoffs_per_cold": ratio(c("core.syn_handoffs"), c("core.cold_starts")),
		"core.boot_ms_p50":           p50("core", "activation.boot"),
		"core.boot_ms_p95":           p95("core", "activation.boot"),

		"cluster.warm_hit_ratio":           ratio(c("cluster.warm_hits"), c("cluster.scheduled")),
		"cluster.preempts":                 c("cluster.preempts"),
		"cluster.migrations":               c("cluster.migrations"),
		"cluster.gossip_probes_per_virt_s": ratio(c("cluster.gossip_probes"), traced.virt.Seconds()),
		"cluster.suspects":                 c("cluster.suspects"),
		"cluster.root_lookups_per_req":     c("cluster.root_lookups") / req,
		"cluster.root_deleg_hit_ratio":     ratio(c("cluster.root_deleg_hits"), c("cluster.root_lookups")),
		"cluster.root_scans":               c("cluster.root_scans"),
		"cluster.deleg_retx":               c("cluster.deleg_retx"),
		"cluster.spills":                   c("cluster.spills"),
		"cluster.cross_migrations":         c("cluster.cross_migrations"),
		"cluster.chunks":                   c("cluster.chunks"),
		"cluster.chunk_retx":               c("cluster.chunk_retx"),
		"cluster.delegation_ms_p50":        p50("cluster", "fed.delegation"),
		"cluster.delegation_ms_p95":        p95("cluster", "fed.delegation"),
		"cluster.transfer_ms_p50":          p50("cluster", "fed.transfer"),

		"cc.acks":     c("cc.acks"),
		"cc.timeouts": c("cc.timeouts"),
		"cc.losses":   c("cc.losses"),

		"wire.frames_per_verb": c("wire.frames") / req,
		"wire.event_frames":    c("wire.event_frames"),
		"wire.unauthorized":    c("wire.unauthorized"),
		"wire.proto_errs":      c("wire.proto_errs"),

		"obs.trace_overhead_frac": overhead,

		"blockdev.reads":  c("blockdev.reads"),
		"blockdev.writes": c("blockdev.writes"),

		"host.alloc_kb_per_req": medianOf(untraced, func(r *repResult) float64 {
			return ratio(float64(r.bytes)/1024, float64(r.attempted))
		}),
		"host.gc_cycles":    medianOf(untraced, func(r *repResult) float64 { return float64(r.gcCycles) }),
		"host.peak_heap_mb": medianOf(untraced, func(r *repResult) float64 { return float64(r.heapInuse) / (1 << 20) }),
	}
	if lad != nil {
		m["sustained_rate_rps"] = lad.sustained
		m["core.coldstart_anchor_err_pct"] = lad.anchorErrPct
	} else {
		m["sustained_rate_rps"] = 0
		m["core.coldstart_anchor_err_pct"] = 0
	}
	for name, v := range probes {
		m[name] = v
	}
	return m
}

// The rate ladder is cold_storm's capacity curve: the same board and
// services at 4/8/12/16/20 fetches per second for 120 virtual seconds
// each, climbing until the first rung that misses. A rung holds when at
// least 95 % of attempted fetches finish within 500 ms — inside the
// 300-550 ms band the repo's Figure 9a note gives for Synjitsu plus the
// optimised toolstack, and half the 1 s SYN-retransmit cliff Synjitsu
// exists to hide — and no launch is still in flight 5 virtual seconds
// after the last arrival (a backlog that grows is not sustained).
var ladderRates = []float64{4, 8, 12, 16, 20}

const (
	ladderHorizon = 120 * time.Second
	ladderLimit   = 500 * time.Millisecond
	ladderShare   = 0.95
	ladderSettle  = 5 * time.Second
	// paperColdStartMs is the midpoint of the paper's 300-350 ms ARM
	// cold-start figure — the repo's only reference latency.
	paperColdStartMs = 325.0
)

type rung struct {
	Rate      float64 `json:"rate_rps"`
	Attempted int     `json:"attempted"`
	P50Ms     float64 `json:"lat_p50_ms"`
	P99Ms     float64 `json:"lat_p99_ms"`
	Within    float64 `json:"within_500ms_frac"`
	Backlog   int     `json:"launching_at_settle"`
	Held      bool    `json:"held"`
}

type ladder struct {
	rungs        []rung
	sustained    float64
	anchorErrPct float64
	violations   []string
}

// runLadder climbs the rungs, each on a fresh world and run once: the
// virtual clock makes every rung exact.
func runLadder(seed int64, scale int) *ladder {
	lad := &ladder{}
	for _, rate := range ladderRates {
		w := newColdStorm(seed, rate, ladderHorizon/sim.Duration(scale), nil)
		w.b.Eng.RunUntil(w.lastArrival + ladderSettle)
		backlog := 0
		for i := range w.sites {
			if w.sites[i].svc.State == core.StateLaunching {
				backlog++
			}
		}
		w.b.Eng.Run()
		w.finish()
		lad.violations = append(lad.violations, w.out.violations...)
		within := 0
		for _, d := range w.out.lat {
			if d <= ladderLimit {
				within++
			}
		}
		r := rung{Rate: rate, Attempted: w.out.attempted, P50Ms: ms(pct(w.out.lat, 0.5)), P99Ms: ms(pct(w.out.lat, 0.99)),
			Within: ratio(float64(within), float64(w.out.attempted)), Backlog: backlog}
		r.Held = r.Within >= ladderShare && backlog == 0
		lad.rungs = append(lad.rungs, r)
		if !r.Held {
			break
		}
		lad.sustained = rate
	}
	lad.anchorErrPct = (lad.rungs[0].P50Ms - paperColdStartMs) / paperColdStartMs * 100
	return lad
}
