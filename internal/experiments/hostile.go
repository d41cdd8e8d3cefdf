package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"jitsu/internal/cluster"
	"jitsu/internal/dns"
	"jitsu/internal/metrics"
	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// The hostile-network family: the same workloads the clean-room
// experiments measure, replayed over impaired links — seeded loss,
// jitter and partitions injected below the bridge — to show that the
// retry/backoff hardening keeps the system inside its envelope where
// the single-datagram ablations fall off a cliff. Every run is
// deterministic (per-link seeded RNGs) and the flash-crowd run carries
// a packet capture folded into the determinism fingerprint, so CI
// checks the wire itself, frame for frame.

const (
	// hostileFlashLoss is the uplink loss rate of the flash-crowd
	// scenario.
	hostileFlashLoss = 0.05
	// hostileFetchTimeout bounds one flash-crowd fetch; an ablated
	// client that loses its only DNS datagram burns all of it.
	hostileFetchTimeout = 10 * time.Second
	// hostileSwimLoss is the one-way loss rate of the asymmetric
	// gossip scenario — lossy, not dead: exactly where indirect probing
	// must avert false confirms.
	hostileSwimLoss = 0.5
)

// hostileFlashName is the flash crowd's one cold service.
const hostileFlashName = "flash.family.name"

// hostileFlashTrace is one flash crowd: n arrivals for a single cold
// service, Poisson-packed into ~300ms so the whole burst lands inside
// the first cold boot. (A burst of n, not a rate over a horizon — hence
// not poisson().)
func hostileFlashTrace(seed int64, n int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	trace := make([]arrival, n)
	at := 1 * time.Second
	for i := range trace {
		at += sim.Duration(rng.ExpFloat64() * float64(300*time.Millisecond) / float64(n))
		trace[i] = arrival{at: at, name: hostileFlashName}
	}
	return trace
}

type hostileFlashOutcome struct {
	lat     *metrics.Series
	errs    int
	retries uint64
	cap     *netsim.Capture
}

// runHostileFlash replays the burst against one link condition. A
// timed-out fetch is recorded at its (censored) elapsed time, so the
// latency series shows the cliff instead of silently dropping it.
func runHostileFlash(label string, trace []arrival, impaired, retry, capture bool) *hostileFlashOutcome {
	c := cluster.NewCluster(
		cluster.WithBoards(2),
		cluster.WithSeed(4200),
		cluster.WithProbing(1*time.Second, 0, 0),
	)
	sc := site(0, scalingImageMiB)
	sc.Name = hostileFlashName
	c.RegisterService(sc)
	cl := c.NewClient("edge-client", netstack.IPv4(10, 0, 0, 9))
	if retry {
		cl.Retry = dns.DefaultRetry()
	}
	out := &hostileFlashOutcome{lat: &metrics.Series{Name: label}}
	link := cl.Host(0).NIC.Link()
	if impaired {
		// Uplink-only loss (the client NIC sits at the link's A end):
		// queries and requests die on the way out, answers arrive clean —
		// the classic congested-edge asymmetry. TCP's own retransmits
		// recover the fetch leg; the single-datagram DNS leg is exactly
		// what the retry policy must cover.
		link.ImpairAtoB(netsim.Impairment{Loss: hostileFlashLoss, Jitter: 1 * time.Millisecond}, 4242)
	}
	if capture {
		out.cap = netsim.NewCapture(c.Eng(), 1<<14)
		link.Tap(out.cap)
	}
	replay(c.Eng(), trace, tierFetch(cl.Fetch, hostileFetchTimeout), func(_ arrival, d sim.Duration, err error) {
		if err != nil {
			out.errs++
		}
		out.lat.Add(d)
	})
	c.RunUntil(trace[len(trace)-1].at + hostileFetchTimeout + time.Second)
	c.StopMembership()
	c.RunAll()
	out.retries = cl.DNSRetries
	return out
}

// runHostileSwim runs one gossiping cluster for horizon with board 1's
// management uplink lossy in its transmit direction only (acks and
// refutations die on the way out — the board is alive but hard to
// hear), and reports the false-alarm counters.
func runHostileSwim(indirect int, horizon sim.Duration) *cluster.Cluster {
	c := cluster.NewCluster(
		cluster.WithBoards(4),
		cluster.WithSeed(4300),
		cluster.WithProbing(500*time.Millisecond, 200*time.Millisecond, 3*time.Second),
		cluster.WithIndirectProbes(indirect),
	)
	c.MgmtLink(1).ImpairAtoB(netsim.Impairment{Loss: hostileSwimLoss}, 43)
	c.RunUntil(horizon)
	c.StopMembership()
	c.RunAll()
	return c
}

// runHostileMigrate evacuates a board over one management-link
// condition and reports the transfer counters. prep scripts the
// impairment right before the leave.
func runHostileMigrate(prep func(*cluster.Cluster, *netsim.Link)) *cluster.Cluster {
	c := cluster.NewCluster(
		cluster.WithBoards(3),
		cluster.WithSeed(4400),
		cluster.WithMigrateOnLeave(true),
	)
	sc := site(0, scalingImageMiB)
	sc.Name = "warm.family.name"
	c.RegisterService(sc, cluster.WithMinWarm(2))
	c.RunAll()
	prep(c, c.MgmtLink(1))
	if err := c.Leave(1, nil); err != nil {
		panic(fmt.Sprintf("hostile: leave: %v", err))
	}
	c.RunAll()
	return c
}

// Hostile regenerates the hostile-network scenarios: the flash crowd
// over a lossy edge (retry vs ablation vs perfect link), the SWIM
// failure detector under an asymmetric lossy uplink (indirect probing
// vs ablation), and a mandatory evacuation racing management-network
// loss and partition.
func Hostile(flashN int, swimHorizon sim.Duration) *Result {
	r := newResult("Hostile", "impaired links: retry/backoff hardening vs single-datagram ablations")

	// -- flash crowd over a lossy edge --
	trace := hostileFlashTrace(4100, flashN)
	perfect := runHostileFlash("flash perfect link", trace, false, true, false)
	hardened := runHostileFlash("flash lossy+retry", trace, true, true, true)
	ablated := runHostileFlash("flash lossy no-retry", trace, true, false, false)
	flash := metrics.NewTable("flash crowd, one cold service, "+
		fmt.Sprintf("%d arrivals, %.0f%% edge loss", flashN, hostileFlashLoss*100),
		"link", "n", "errs", "dns-retries", "p50", "p95", "max")
	for _, o := range []*hostileFlashOutcome{perfect, hardened, ablated} {
		d := o.lat.Summarize()
		flash.AddRow(o.lat.Name, d.Len(), o.errs, o.retries, d.P50(), d.P95(), d.Max())
		r.Series[o.lat.Name] = o.lat
	}
	r.Captures["flash lossy edge"] = hardened.cap

	// -- SWIM under an asymmetric lossy uplink --
	indirect := runHostileSwim(2, swimHorizon)
	direct := runHostileSwim(0, swimHorizon)
	swim := metrics.NewTable(fmt.Sprintf(
		"gossip, board 1 transmit-lossy (%.0f%%) for %v",
		hostileSwimLoss*100, time.Duration(swimHorizon)),
		"probing", "ping-reqs", "indirect-acks", "suspects", "refutes", "false-confirms")
	swim.AddRow("indirect k=2", indirect.PingReqs, indirect.IndirectAcks,
		indirect.Suspects, indirect.Refutes, indirect.Confirms)
	swim.AddRow("direct only", direct.PingReqs, direct.IndirectAcks,
		direct.Suspects, direct.Refutes, direct.Confirms)

	// -- migration racing management-network faults --
	clean := runHostileMigrate(func(*cluster.Cluster, *netsim.Link) {})
	lossy := runHostileMigrate(func(_ *cluster.Cluster, l *netsim.Link) {
		l.Impair(netsim.Impairment{Loss: 0.2}, 44)
	})
	healed := runHostileMigrate(func(c *cluster.Cluster, l *netsim.Link) {
		// Cut mid-transfer, heal after the chunk retries exhaust but
		// before the rescheduled attempt fires.
		c.Eng().After(20*time.Millisecond, func() { l.Partition() })
		c.Eng().After(2500*time.Millisecond, func() { l.Heal() })
	})
	dead := runHostileMigrate(func(_ *cluster.Cluster, l *netsim.Link) { l.Partition() })
	mig := metrics.NewTable("mandatory evacuation of board 1, chunked pre-copy",
		"mgmt link", "chunks", "retx", "aborts", "migrations", "lost")
	for _, row := range []struct {
		name string
		c    *cluster.Cluster
	}{{"clean", clean}, {"20% loss", lossy}, {"partition+heal", healed}, {"partitioned", dead}} {
		mig.AddRow(row.name, row.c.Chunks, row.c.ChunkRetx, row.c.XferAborts,
			row.c.Migrations, row.c.Lost)
	}

	r.Output = flash.String() + "\n" + swim.String() + "\n" + mig.String()
	r.addNote("all three flash-crowd runs share one burst trace; a timed-out fetch is recorded at its censored elapsed time, so the ablation's cliff shows in the percentiles instead of vanishing from them")
	r.addNote("expected shape: with retry the lost datagrams recover under the cold boot the burst is already waiting on, so p95 stays within 2x of the perfect link; the ablation turns every lost query into a full client timeout")
	r.addNote("gossip: read the false-confirms column, not suspects — the direct-only detector wrongly confirms the lossy-but-alive board dead and then stops probing it (few suspicion events, long wrongful exiles), while indirect probing keeps it in the ring: most direct-ack losses are averted by an indirect ack and the rest are refuted before the suspicion matures")
	r.addNote("migration: retransmits ride out 20%% management-link loss with zero aborts; a mid-transfer partition costs one bounded abort and the rescheduled attempt completes after the heal; only a permanent partition gives up — after the full attempt budget, never wedging the departure")
	return r
}
