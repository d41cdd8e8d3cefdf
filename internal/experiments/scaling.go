package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"jitsu/internal/cluster"
	"jitsu/internal/core"
	"jitsu/internal/metrics"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// The scaling workload: a small edge cloud of per-person services with
// a popularity skew. Hot services arrive often enough to stay warm;
// cold ones lapse past the fleet's idle timeout between visits, so the
// baseline pays a fresh cold start (plus the SERVFAIL walk) almost
// every time, while the cluster's warm pools keep them booted.
const (
	scalingHotServices  = 4
	scalingColdServices = 6
	scalingHotMeanGap   = 1500 * time.Millisecond
	scalingColdMeanGap  = 12 * time.Second
	// scalingImageMiB makes four replicas fill one 768 MiB board, so
	// capacity pressure is real at small board counts.
	scalingImageMiB = 160
	// scalingIdleTimeout is the fleet baseline's per-board reaper.
	scalingIdleTimeout = 8 * time.Second
)

// scalingTrace builds one Poisson arrival schedule shared verbatim by
// the fleet and cluster runs, so both face the identical workload.
func scalingTrace(seed int64, horizon sim.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var trace []arrival
	for s := 0; s < scalingHotServices+scalingColdServices; s++ {
		mean := scalingHotMeanGap
		if s >= scalingHotServices {
			mean = scalingColdMeanGap
		}
		trace = poisson(rng, trace, s, 0, horizon, mean)
	}
	return byTime(trace)
}

// scalingOutcome is one system's run at one board count.
type scalingOutcome struct {
	tally
	total      int
	coldStarts uint64
}

func (o *scalingOutcome) refusedPct() float64 {
	if o.total == 0 {
		return 0
	}
	return 100 * float64(o.refused) / float64(o.total)
}

// runScalingFleet replays the trace against the §3.3.2 baseline: every
// board registers every service, the client walks the NS set on
// SERVFAIL.
func runScalingFleet(n int, seed int64, trace []arrival) *scalingOutcome {
	fl := core.NewFleet(n, core.WithSeed(seed))
	var svcs [][]*core.Service
	for s := 0; s < scalingHotServices+scalingColdServices; s++ {
		sc := site(s, scalingImageMiB)
		sc.IdleTimeout = scalingIdleTimeout
		svcs = append(svcs, fl.RegisterEverywhere(sc))
	}
	fc := fl.NewClient("edge-client", netstack.IPv4(10, 0, 0, 9))
	out := &scalingOutcome{tally: tally{lat: &metrics.Series{Name: fmt.Sprintf("fleet@%d", n)}}, total: len(trace)}
	replay(fl.Eng(), trace, tierFetch(fc.Fetch, 30*time.Second), out.record)
	fl.RunAll()
	for _, reps := range svcs {
		for _, svc := range reps {
			out.coldStarts += svc.ColdStarts
		}
	}
	return out
}

// runScalingCluster replays the trace against the control plane: one
// query, scheduler-picked board, EWMA-sized warm pools.
func runScalingCluster(n int, seed int64, trace []arrival) *scalingOutcome {
	c := cluster.NewCluster(cluster.WithBoards(n), cluster.WithSeed(seed))
	for s := 0; s < scalingHotServices+scalingColdServices; s++ {
		c.RegisterService(site(s, scalingImageMiB))
	}
	cl := c.NewClient("edge-client", netstack.IPv4(10, 0, 0, 9))
	out := &scalingOutcome{tally: tally{lat: &metrics.Series{Name: fmt.Sprintf("cluster@%d", n)}}, total: len(trace)}
	replay(c.Eng(), trace, tierFetch(cl.Fetch, 30*time.Second), out.record)
	c.RunAll()
	for _, t := range c.ServiceTotals() {
		out.coldStarts += t.ColdStarts
	}
	return out
}

// Scaling contrasts the paper's client-side SERVFAIL failover with the
// cluster control plane as the board count grows: time-to-first-response
// percentiles, refusal rate, and cold-start counts under one shared
// Poisson arrival trace per board count.
func Scaling(boardCounts []int, horizon sim.Duration) *Result {
	r := newResult("Scaling", "cluster placement vs fleet failover under Poisson arrivals")
	tab := metrics.NewTable("",
		"boards", "system", "n-ok", "p50", "p95", "refused%", "errs", "coldstarts")
	for _, n := range boardCounts {
		trace := scalingTrace(7000+int64(n), horizon)
		fleet := runScalingFleet(n, 7100+int64(n), trace)
		clus := runScalingCluster(n, 7100+int64(n), trace)
		for _, o := range []*scalingOutcome{fleet, clus} {
			d := o.lat.Summarize()
			tab.AddRow(n, o.lat.Name, d.Len(), d.P50(),
				d.P95(), fmt.Sprintf("%.1f", o.refusedPct()), o.errs, o.coldStarts)
			r.Series[o.lat.Name] = o.lat
		}
	}
	r.Output = tab.String()
	r.addNote("the fleet client re-resolves through the NS set on SERVFAIL and re-boots idle-reaped services; the cluster answers one query from the scheduler-picked board and its EWMA warm pools keep active services booted")
	r.addNote("expected shape: at 1 board both are capacity-limited but preemption keeps the hot services placed (fewer refusals); at the capacity edge the cluster trades a point or two of refusal rate for keeping its pools warm; at ≥4 boards the cluster's p95 drops well below the baseline, which still pays repeated cold starts + walk latency")
	return r
}
