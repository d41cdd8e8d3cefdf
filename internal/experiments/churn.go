package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"jitsu/internal/cluster"
	"jitsu/internal/metrics"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// The churn workload: a steady Poisson request stream against a small
// cluster whose membership moves underneath it — boards leave
// gracefully and a replacement joins mid-run. The contrast is the two
// departure policies: live migration keeps every warm replica warm
// (the source serves until the destination restores from checkpoint),
// while the preempt-and-reboot baseline destroys the leaving board's
// replicas and pays fresh cold boots behind the next arrivals.
const (
	churnBoards   = 3
	churnServices = 8
	churnMeanGap  = 600 * time.Millisecond
	// churnImageMiB leaves headroom: 8 replicas of 96 MiB spread over
	// three 768 MiB boards, so a departing board's replicas always have
	// somewhere to go (a saturated cluster degenerates to the baseline —
	// migration needs free memory like any other placement).
	churnImageMiB = 96
	// churnWindow is the post-leave observation window: requests issued
	// within it after a leave event form the "under churn" series.
	churnWindow = 2 * time.Second
)

// churnTrace is one Poisson arrival schedule over all services, shared
// verbatim by the migrate and preempt runs.
func churnTrace(seed int64, horizon sim.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var trace []arrival
	for s := 0; s < churnServices; s++ {
		trace = poisson(rng, trace, s, 0, horizon, churnMeanGap)
	}
	return byTime(trace)
}

// churnSchedule scripts the membership events: two graceful departures
// with a join in between, all relative to the horizon.
type churnEvent struct {
	at    sim.Duration
	join  bool
	board int
}

func churnSchedule(horizon sim.Duration) []churnEvent {
	return []churnEvent{
		{at: horizon / 3, board: 2},
		{at: horizon * 45 / 100, join: true},
		{at: horizon * 2 / 3, board: 1},
	}
}

type churnOutcome struct {
	tally     // lat is every served fetch
	postLeave *metrics.Series
	trace     *obs.Tracer
	migrated  uint64
	lost      uint64
	restores  uint64
	cold      uint64
}

// runChurn replays the trace against one departure policy.
func runChurn(migrate, traced bool, seed int64, trace []arrival, horizon sim.Duration) *churnOutcome {
	label := "preempt"
	if migrate {
		label = "migrate"
	}
	// Exactly one warm replica per service (WithWarmPool cap): the
	// replica that must move when its board leaves, rather than a pool
	// that can mask the loss.
	// One optional flight recorder per policy run (WithTracing): gossip,
	// migration and boot spans land beside the latency table (board i on
	// lane i); nil keeps the run on the untraced hot path.
	var tracer *obs.Tracer
	if traced {
		tracer = obs.NewTracer(1 << 15)
	}
	c := cluster.NewCluster(
		cluster.WithBoards(churnBoards),
		cluster.WithSeed(seed),
		cluster.WithMigrateOnLeave(migrate),
		cluster.WithProbing(1*time.Second, 0, 0),
		cluster.WithWarmPool(1.0, 1),
		cluster.WithTracer(tracer, 0),
	)
	for s := 0; s < churnServices; s++ {
		c.RegisterService(site(s, churnImageMiB), cluster.WithMinWarm(1))
	}
	cl := c.NewClient("edge-client", netstack.IPv4(10, 0, 0, 9))

	var leaveAts []sim.Duration
	for _, ev := range churnSchedule(horizon) {
		ev := ev
		if ev.join {
			c.Eng().At(ev.at, func() { c.AddBoard() })
			continue
		}
		leaveAts = append(leaveAts, ev.at)
		c.Eng().At(ev.at, func() {
			if err := c.Leave(ev.board, nil); err != nil {
				panic(fmt.Sprintf("churn: leave board %d: %v", ev.board, err))
			}
		})
	}
	underChurn := func(at sim.Duration) bool {
		for _, l := range leaveAts {
			if at >= l && at < l+churnWindow {
				return true
			}
		}
		return false
	}

	out := &churnOutcome{
		tally:     tally{lat: &metrics.Series{Name: fmt.Sprintf("churn-%s", label)}},
		postLeave: &metrics.Series{Name: fmt.Sprintf("churn-%s post-leave", label)},
		trace:     tracer,
	}
	replay(c.Eng(), trace, tierFetch(cl.Fetch, 30*time.Second), func(a arrival, d sim.Duration, err error) {
		if out.add(d, err) && underChurn(a.at) {
			out.postLeave.Add(d)
		}
	})
	// Active probing keeps the event queue alive; run the horizon (plus
	// slack for in-flight requests), then quiesce the gossip agents and
	// drain what remains.
	c.RunUntil(horizon + 10*time.Second)
	c.StopMembership()
	c.RunAll()

	out.migrated = c.Migrations
	out.lost = c.Lost
	for _, t := range c.ServiceTotals() {
		out.cold += t.ColdStarts
		out.restores += t.Restores
	}
	return out
}

// Churn contrasts live migration with preempt-and-reboot under dynamic
// membership: the same Poisson trace and the same join/leave schedule,
// measured on time-to-first-response — overall and in the windows right
// after each departure.
func Churn(horizon sim.Duration, opts ...Option) *Result {
	cfg := applyOptions(opts)
	r := newResult("Churn", "migration vs preempt-and-reboot under board join/leave")
	trace := churnTrace(9000, horizon)
	mig := runChurn(true, cfg.trace, 9100, trace, horizon)
	pre := runChurn(false, cfg.trace, 9100, trace, horizon)

	tab := metrics.NewTable("",
		"policy", "n-ok", "errs", "p50", "p95", "post-leave-p95", "coldstarts", "migrations", "restores", "lost")
	for _, o := range []*churnOutcome{mig, pre} {
		d := o.lat.Summarize()
		tab.AddRow(o.lat.Name, d.Len(), o.errs, d.P50(), d.P95(),
			o.postLeave.Summarize().P95(), o.cold, o.migrated, o.restores, o.lost)
		r.Series[o.lat.Name] = o.lat
		r.Series[o.postLeave.Name] = o.postLeave
		r.addTrace(o.lat.Name, o.trace)
	}
	r.Output = tab.String()
	r.addNote("both runs share one Poisson trace and one membership schedule (two graceful leaves, one join); the only difference is what happens to the leaving board's warm replicas")
	r.addNote("expected shape: with migration the source replica serves until the destination restores from its checkpoint, so post-leave p95 stays on the warm path; the baseline destroys the replicas and the arrivals behind each leave ride fresh cold boots")
	return r
}
