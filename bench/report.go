package main

import (
	"fmt"
	"io"
	"sort"
)

// printWorkload prints every metric of one workload by name, with its
// unit: the end-to-end block (with quartiles for the host metrics and
// the sample count beside the latencies), the rate ladder, the
// per-layer block, and the two attributions — virtual self time by
// layer from the spans, estimated host share by layer from the probes.
func printWorkload(w io.Writer, def *workloadDef, wr *workloadResult) {
	fmt.Fprintf(w, "\n== %s: %s\n", def.name, def.why)
	fmt.Fprintf(w, "%s fingerprint %s  reps %d  attempted %d  failed %d  first-attempt failures %d  latency samples/rep %d\n",
		def.name, wr.Fingerprint, wr.Reps, wr.Attempted, wr.Failed, wr.FirstFailed, wr.LatSamples)
	for _, d := range endToEnd {
		s := wr.EndToEnd[d.Name]
		if virtualMetrics[d.Name] {
			fmt.Fprintf(w, "%s %s %.6f %s (virtual, exact for the seed)\n", def.name, d.Name, s.Value, s.Unit)
		} else {
			fmt.Fprintf(w, "%s %s %.6f %s (host, median of %d; quartiles %.6f .. %.6f)\n", def.name, d.Name, s.Value, s.Unit, len(s.Samples), s.Q1, s.Q3)
		}
	}
	if wr.PerLayer == nil {
		return
	}
	fmt.Fprintf(w, "%s fail_frac %.6f fraction (virtual: first-attempt failures / attempted)\n", def.name, wr.PerLayer["fail_frac"])
	for _, r := range wr.Ladder {
		fmt.Fprintf(w, "%s ladder %2.0f req/s: p50 %.3f ms  p99 %.3f ms  within 500 ms %.4f  launching at settle %d  attempted %d  held %v  (p50 vs the paper's 325 ms: %+.1f %%)\n",
			def.name, r.Rate, r.P50Ms, r.P99Ms, r.Within, r.Backlog, r.Attempted, r.Held, (r.P50Ms-paperColdStartMs)/paperColdStartMs*100)
	}
	if wr.Ladder != nil {
		fmt.Fprintf(w, "%s sustained_rate_rps %.0f 1/s (virtual: the highest rung that held)\n", def.name, wr.PerLayer["sustained_rate_rps"])
	}
	for _, d := range perLayer {
		if d.Name == "fail_frac" || d.Name == "sustained_rate_rps" {
			continue // printed above, with the end-to-end block
		}
		fmt.Fprintf(w, "%s %s %.6g %s\n", def.name, d.Name, wr.PerLayer[d.Name], d.Unit)
	}
	printShares(w, def.name+" virtual self time", "ms", wr.SelfNS, 1e-6)
	printShares(w, def.name+" estimated host share (probe ns x count / host ns; an upper bound, layers overlap)", "", wr.Estimated, 1)
}

func printShares[V int64 | float64](w io.Writer, title, unit string, shares map[string]V, scale float64) {
	if len(shares) == 0 {
		return
	}
	names := make([]string, 0, len(shares))
	for k := range shares {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:", title)
	for _, k := range names {
		fmt.Fprintf(w, " %s=%.4g%s", k, float64(shares[k])*scale, unit)
	}
	fmt.Fprintln(w)
}

// estimatedShares bounds what a speed-up of one layer could save on
// this workload: the layer's probe cost times how often the workload
// performed that operation, over the workload's host time.
func estimatedShares(traced *repResult, untraced []repResult, probes map[string]float64) map[string]float64 {
	host := medianOf(untraced, func(r *repResult) float64 { return float64(r.wall) })
	c := func(name string) float64 { return float64(traced.counts[name]) }
	p := func(name string) float64 { return probes[name+"_ns"] }
	return map[string]float64{
		"sim":      ratio(p("sim.probe.sched_pop")*c("sim.fired"), host),
		"netsim":   ratio(p("netsim.probe.bridge_frame")*c("netsim.frames"), host),
		"dns":      ratio(p("dns.probe.serve_hit")*c("dns.cache_hits")+p("dns.probe.serve_miss")*c("dns.cache_misses"), host),
		"xenstore": ratio(p("xenstore.probe.tx_n1k")*c("xenstore.commits"), host),
		"xen":      ratio(p("xen.probe.create_destroy_r32")*c("xen.launches"), host),
		"cluster":  ratio(p("cluster.probe.place")*c("cluster.scheduled"), host),
		"cc":       ratio(p("cc.probe.acquire_ack")*c("cc.acks"), host),
		"wire":     ratio((p("wire.probe.encode_register")+p("wire.probe.decode_register"))*c("wire.frames"), host),
	}
}
