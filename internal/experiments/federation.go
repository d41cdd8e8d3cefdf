package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"jitsu/internal/cluster"
	"jitsu/internal/metrics"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// The federation workload: the same service population served two ways —
// one flat 16-board cluster (one directory holding every service row)
// versus a 4x4 federation (a root holding only per-cluster summaries,
// delegating to the owning cluster's directory). Midway through the
// trace the services homed on federation cluster 0 turn hot — a
// regional popularity skew. The flat cluster absorbs it with raw
// capacity; the federation must *rebalance*: admission refusals spill
// starved services to clusters with room, and the root's skew detector
// (sustained load imbalance in the gossiped per-cluster EWMAs) sheds
// warm replicas across clusters over the Checkpoint -> Transfer leg,
// with no operator in the loop.
const (
	fedExpClusters  = 4
	fedExpBoardsPer = 4
	fedExpServices  = 80 // 20 per cluster
	// fedExpImageMiB: 4 replicas fill a 768 MiB board, so one cluster
	// (16 slots) cannot hold all 20 of its services warm — the skew
	// must move work, not just wake pools.
	fedExpImageMiB = 192
	fedExpColdGap  = 20 * time.Second
	fedExpHotGap   = 1500 * time.Millisecond
	// fedExpMinRate makes rarely-visited services (effective rate 0.05/s
	// at the cold gap) release their slot between visits, while a hot
	// service (0.67/s) would need a ten-second silence to be reclaimed.
	fedExpMinRate      = 0.1
	fedExpSummaryEvery = 500 * time.Millisecond
)

// fedHome is the cluster service s homes on: least-loaded registration
// over equal clusters fills round-robin. Asserted at registration.
func fedHome(s int) int { return s % fedExpClusters }

// fedTrace is the shared Poisson schedule: every service arrives at the
// cold mean gap; from skewAt the services homed on cluster 0 switch to
// the hot gap.
func fedTrace(seed int64, horizon, skewAt sim.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var trace []arrival
	for s := 0; s < fedExpServices; s++ {
		if fedHome(s) != 0 {
			trace = poisson(rng, trace, s, 0, horizon, fedExpColdGap)
			continue
		}
		trace = poisson(rng, trace, s, 0, min(skewAt, horizon), fedExpColdGap)
		trace = poisson(rng, trace, s, skewAt, horizon, fedExpHotGap)
	}
	return byTime(trace)
}

// fedWindows are the post-skew observation windows: early catches the
// overload (and the rebalance in flight), late the recovered steady
// state.
func fedWindows(horizon, skewAt sim.Duration) (earlyFrom, earlyTo, lateFrom sim.Duration) {
	return skewAt + time.Second, skewAt + 11*time.Second, skewAt + 20*time.Second
}

type fedRunOutcome struct {
	tally                        // lat is every served fetch
	early, late                  *metrics.Series
	earlyRef, lateRef            int
	earlyFrom, earlyTo, lateFrom sim.Duration
	cold                         uint64
	spills, xmigs, sheds         uint64
	rootRows, dirRows, rootScans uint64
}

func newFedRunOutcome(label string, horizon, skewAt sim.Duration) *fedRunOutcome {
	o := &fedRunOutcome{
		tally: tally{lat: &metrics.Series{Name: label}},
		early: &metrics.Series{Name: label + " post-skew-early"},
		late:  &metrics.Series{Name: label + " post-skew-late"},
	}
	o.earlyFrom, o.earlyTo, o.lateFrom = fedWindows(horizon, skewAt)
	return o
}

// record books one outcome. The post-skew windows track only the
// skewed (hot) population — the cold background services pay a designed
// cold start per visit in every system, which would otherwise bury the
// recovery signal in the window percentiles.
func (o *fedRunOutcome) record(a arrival, d sim.Duration, err error) {
	o.add(d, err)
	if fedHome(a.svc) != 0 {
		return
	}
	switch {
	case a.at >= o.earlyFrom && a.at < o.earlyTo:
		if refusal(err) {
			o.earlyRef++
		} else if err == nil {
			o.early.Add(d)
		}
	case a.at >= o.lateFrom:
		if refusal(err) {
			o.lateRef++
		} else if err == nil {
			o.late.Add(d)
		}
	}
}

// runFedFlat replays the trace against one 16-board cluster: the flat
// directory baseline whose root state is O(services).
func runFedFlat(seed int64, trace []arrival, horizon, skewAt sim.Duration) *fedRunOutcome {
	c := cluster.NewCluster(
		cluster.WithBoards(fedExpClusters*fedExpBoardsPer),
		cluster.WithSeed(seed),
		cluster.WithMinRate(fedExpMinRate),
	)
	for s := 0; s < fedExpServices; s++ {
		c.RegisterService(site(s, fedExpImageMiB))
	}
	cl := c.NewClient("edge-client", netstack.IPv4(10, 0, 0, 9))
	out := newFedRunOutcome("flat-1x16", horizon, skewAt)
	replay(c.Eng(), trace, tierFetch(cl.Fetch, 30*time.Second), out.record)
	c.RunAll()
	for _, t := range c.ServiceTotals() {
		out.cold += t.ColdStarts
	}
	out.dirRows = uint64(len(c.Directory().Entries()))
	out.rootRows = out.dirRows // the flat directory IS the root
	return out
}

// runFedFederation replays the trace against the 4x4 federation, with
// or without the rebalance machinery (spill + skew shed).
func runFedFederation(label string, rebalance bool, seed int64, trace []arrival, horizon, skewAt sim.Duration) *fedRunOutcome {
	opts := []cluster.FedOption{
		cluster.WithClusters(fedExpClusters),
		cluster.WithMemberOptions(
			cluster.WithBoards(fedExpBoardsPer),
			cluster.WithSeed(seed),
			cluster.WithMinRate(fedExpMinRate),
		),
		cluster.WithSummaryEvery(fedExpSummaryEvery),
	}
	if !rebalance {
		opts = append(opts, cluster.WithSkewPolicy(0, 0.5, 3, 2), cluster.WithSpillOnRefuse(false))
	}
	f := cluster.NewFederation(opts...)
	for s := 0; s < fedExpServices; s++ {
		m, _ := f.RegisterService(site(s, fedExpImageMiB))
		if m.ID != fedHome(s) {
			panic(fmt.Sprintf("federation: svc%02d homed on cluster %d, want %d", s, m.ID, fedHome(s)))
		}
	}
	fc := f.NewClient("edge-client", netstack.IPv4(10, 0, 0, 9))
	out := newFedRunOutcome(label, horizon, skewAt)
	replay(f.Eng(), trace, fedFetch(fc, 30*time.Second), out.record)
	// Periodic summary pushes keep the queue alive: run the horizon plus
	// slack, quiesce, drain.
	f.RunUntil(horizon + 15*time.Second)
	f.Stop()
	f.RunAll()
	for _, m := range f.Members() {
		for _, t := range m.Cluster.ServiceTotals() {
			out.cold += t.ColdStarts
		}
		out.dirRows += uint64(len(m.Cluster.Directory().Entries()))
	}
	root := f.Root()
	out.rootRows = uint64(root.StateSize)
	out.rootScans = root.Scans
	out.spills = f.Spills
	out.xmigs = f.CrossMigrations
	out.sheds = f.Sheds
	return out
}

// Federation contrasts the flat cluster with the summarized federation
// under the same regional-skew Poisson trace.
func Federation(horizon sim.Duration) *Result {
	r := newResult("Federation", "flat 1x16 cluster vs 4x4 federation under regional skew")
	skewAt := horizon * 2 / 5
	trace := fedTrace(11000, horizon, skewAt)

	flat := runFedFlat(11100, trace, horizon, skewAt)
	fed := runFedFederation("fed-4x4", true, 11100, trace, horizon, skewAt)
	frozen := runFedFederation("fed-4x4-norebalance", false, 11100, trace, horizon, skewAt)

	tab := metrics.NewTable("",
		"system", "n-ok", "refused", "errs", "p95", "early-p95", "late-p95",
		"early-refused", "late-refused", "coldstarts", "spills", "xmigs", "root-rows")
	for _, o := range []*fedRunOutcome{flat, fed, frozen} {
		tab.AddRow(o.lat.Name, o.lat.Len(), o.refused, o.errs,
			o.lat.Summarize().P95(), o.early.Summarize().P95(), o.late.Summarize().P95(),
			o.earlyRef, o.lateRef, o.cold, o.spills, o.xmigs, o.rootRows)
		r.Series[o.lat.Name] = o.lat
		r.Series[o.early.Name] = o.early
		r.Series[o.late.Name] = o.late
	}
	r.Output = tab.String()
	r.addNote("one Poisson trace; at t=%v the 20 services homed on federation cluster 0 go hot (mean gap %v) while the rest stay at %v — 20 warm replicas of %d MiB cannot fit cluster 0's 16 slots", skewAt, fedExpHotGap, fedExpColdGap, fedExpImageMiB)
	r.addNote("the federation root holds %d summary rows for %d services (the flat directory holds %d rows; the member directories %d between them); delegated lookups scan summaries — %d scans over the whole trace, the rest served from the delegation/negative caches, which every epoch bump clears", fed.rootRows, fedExpServices, flat.rootRows, fed.dirRows, fed.rootScans)
	r.addNote("recovery is automatic: admission refusals spill starved services to clusters with room (%d spills) and the root's sustained-skew detector sheds warm replicas over the Checkpoint->Transfer leg (%d cross-cluster migrations, %d shed commands) — no operator call; the frozen federation keeps refusing (%d late-window refusals vs %d)", fed.spills, fed.xmigs, fed.sheds, frozen.lateRef, fed.lateRef)
	return r
}
