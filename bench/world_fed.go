package main

import (
	"math/rand"
	"sort"
	"strings"
	"time"

	"jitsu/internal/cluster"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// The fed_skew shape is internal/experiments' Federation scenario: 4
// clusters of 4 boards, 80 services homed round-robin; every service
// arrives at a 20 s mean gap (so its replica is reclaimed between
// visits and most visits boot) until, at 40 % of the horizon, the
// services homed on cluster 0 turn hot. The root's skew detector then
// sheds warm replicas to the other clusters over the paced
// Checkpoint -> Transfer leg. Images are 96 MiB — the experiment's
// 192 MiB refuse ≈ 2 % of fetches by design, and the benchmark wants
// workloads on which no request fails.
const (
	fedClusters  = 4
	fedBoardsPer = 4
	fedServices  = 80
	fedMemMiB    = 64
	fedColdGap   = 20 * time.Second
	fedHotGap    = 1500 * time.Millisecond
	fedHorizon   = 480 * time.Second
	// fedDrainSlack is how long past the last arrival the federation
	// keeps running before it is quiesced: a fetch that times out and
	// its retry must both still find the root answering.
	fedDrainSlack = fetchTimeout + 15*time.Second
	// fedProbeEvery turns the SWIM failure detector on inside every
	// member cluster, so the gossip layer carries traffic beside the
	// summaries and transfers it shares the management links with.
	fedProbeEvery = time.Second
)

type fedWorld struct {
	f       *cluster.Federation
	fc      *cluster.FedClient
	sites   []site
	out     outcome
	rec     *recorder
	tracer  *obs.Tracer
	horizon sim.Duration
	nextReq int
}

func newFedSkew(seed int64, horizon sim.Duration, rec *recorder) *fedWorld {
	w := &fedWorld{rec: rec, tracer: newTracer(rec), horizon: horizon}
	opts := []cluster.FedOption{
		cluster.WithClusters(fedClusters),
		cluster.WithMemberOptions(
			cluster.WithBoards(fedBoardsPer),
			cluster.WithSeed(seed),
			cluster.WithMinRate(0.1),
			// One warm replica per service. The default lets the noisy
			// 1/gap rate estimate of a 0.67 req/s service jump to two or
			// three replicas and back; that speculative churn, not the
			// requests, then sets the workload's host cost — by ±10 %
			// from one seed to the next.
			cluster.WithWarmPool(1.0, 1),
			cluster.WithProbing(fedProbeEvery, 0, 0),
		),
		cluster.WithSummaryEvery(500 * time.Millisecond),
		cluster.WithSkewPolicy(2.0, 0.5, 3, 2),
		// Checkpoint chunks share the federation links with delegation
		// replies; the default 5 ms x 3 budget writes a queued reply off
		// as SERVFAIL, the hardened one rides the chunk out.
		cluster.WithDelegateRetry(50*time.Millisecond, 4),
		// Spill-on-refuse together with the skew detector can unregister
		// a service whose launch is in flight, which crashes the
		// toolstack (README, findings); the images are sized so that
		// admission has no reason to refuse.
		cluster.WithSpillOnRefuse(false),
	}
	if w.tracer != nil {
		opts = append(opts, cluster.WithFedTracer(w.tracer))
	}
	w.f = cluster.NewFederation(opts...)
	homes := make([]int, fedServices)
	for s := 0; s < fedServices; s++ {
		cfg, body := siteConfig(s, w.f.Cfg.Cluster.Board.Zone, fedMemMiB, 0)
		m, _ := w.f.RegisterService(cfg)
		homes[s] = m.ID
		w.sites = append(w.sites, site{name: cfg.Name, ip: cfg.IP, body: body})
	}
	w.fc = w.f.NewClient("edge", netstack.IPv4(10, 0, 0, 9))
	for _, a := range fedTrace(subSeed(seed, 1), homes, horizon) {
		w.f.Eng().At(a.at, func() { w.fetch(a.svc) })
	}
	return w
}

// fedTrace is the per-service Poisson schedule with the regional skew:
// services homed on cluster 0 switch from the cold to the hot gap at
// 40 % of the horizon.
func fedTrace(seed int64, homes []int, horizon sim.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	skewAt := horizon * 2 / 5
	var trace []arrival
	draw := func(gap time.Duration) sim.Duration { return sim.Duration(rng.ExpFloat64() * float64(gap)) }
	for s, home := range homes {
		hot := home == 0
		at := draw(fedColdGap)
		for ; at < horizon && !(hot && at >= skewAt); at += draw(fedColdGap) {
			trace = append(trace, arrival{at: at, svc: s})
		}
		if !hot {
			continue
		}
		for at = skewAt + draw(fedHotGap); at < horizon; at += draw(fedHotGap) {
			trace = append(trace, arrival{at: at, svc: s})
		}
	}
	sort.SliceStable(trace, func(i, j int) bool { return trace[i].at < trace[j].at })
	return trace
}

func (w *fedWorld) fetch(svc int) {
	eng, st := w.f.Eng(), &w.sites[svc]
	start := eng.Now()
	w.nextReq++
	w.out.attempted++
	root := w.rec.begin(w.nextReq, -1, "bench", "fetch", svcKey(st.name), start)
	var try func(attempt int)
	try = func(attempt int) {
		leg := w.rec.begin(w.nextReq, root, "cluster", "fedclient.fetch", "", eng.Now())
		w.fc.Fetch(st.name, "/", fetchTimeout, func(cid, board int, resp *netstack.HTTPResponse, _ sim.Duration, err error) {
			w.rec.end(leg, eng.Now())
			if err != nil && attempt == 0 {
				w.out.firstFailed++
				try(1)
				return
			}
			w.rec.end(root, eng.Now())
			if err != nil {
				w.out.failedRequest("%s at %v: %v", st.name, start, err)
				return
			}
			if cid < 0 || cid >= fedClusters || board < 0 {
				w.out.violate("%s served from cluster %d board %d", st.name, cid, board)
			}
			checkResponse(&w.out, st.name, st.body, resp)
			w.out.lat = append(w.out.lat, eng.Now()-start)
		})
	}
	try(0)
}

func (w *fedWorld) run() {
	// The periodic summary pushes and gossip probes keep the queue
	// alive: run the horizon plus slack, quiesce, drain.
	w.f.RunUntil(w.horizon + fedDrainSlack)
	w.f.Stop()
	w.f.RunAll()
}

// finish checks that every congestion window is settled: a transfer
// that leaked a grant would wedge later transfers on that uplink.
func (w *fedWorld) finish() {
	check := func(snap obs.Snapshot) {
		for _, g := range snap.Gauges {
			if strings.HasSuffix(g.Name, ".inflight_bytes") && g.Value != 0 {
				w.out.violate("%s/%s = %d after drain", snap.Name, g.Name, g.Value)
			}
		}
	}
	check(w.f.Reg.Snapshot())
	for _, m := range w.f.Members() {
		check(m.Cluster.Reg.Snapshot())
	}
}

func (w *fedWorld) outcome() *outcome        { return &w.out }
func (w *fedWorld) virtualNow() sim.Duration { return w.f.Eng().Now() }
func (w *fedWorld) flight() *obs.Tracer      { return w.tracer }

func (w *fedWorld) counters() map[string]uint64 {
	c := map[string]uint64{}
	for _, m := range w.f.Members() {
		clusterCounters(c, m.Cluster)
	}
	c["cluster.spills"] = w.f.Spills
	c["cluster.cross_migrations"] = w.f.CrossMigrations
	c["cluster.chunks"] += w.f.FedChunks
	c["cluster.chunk_retx"] += w.f.FedChunkRetx
	root := w.f.Root()
	c["cluster.root_lookups"] = root.Lookups
	c["cluster.root_deleg_hits"] = root.DelegHits
	c["cluster.root_scans"] = root.Scans
	c["cluster.deleg_retx"] = root.DelegRetx
	ccCounters(c, w.f.Reg.Snapshot())
	c["sim.fired"] = w.f.Eng().Fired()
	c["sim.max_pending"] = uint64(w.f.Eng().MaxPending())
	return c
}

// clusterCounters adds one cluster's scheduler, gossip and migration
// counts, its boards' counts and its management endpoints.
func clusterCounters(c map[string]uint64, cl *cluster.Cluster) {
	c["cluster.warm_hits"] += cl.WarmHits
	c["cluster.scheduled"] += cl.WarmHits + cl.Placed + cl.ServFails
	c["cluster.preempts"] += cl.Preempts
	c["cluster.migrations"] += cl.Migrations
	c["cluster.gossip_probes"] += cl.Probes
	c["cluster.suspects"] += cl.Suspects
	c["cluster.chunks"] += cl.Chunks
	c["cluster.chunk_retx"] += cl.ChunkRetx
	for i, b := range cl.Boards {
		boardCounters(c, b)
		mgmt := cl.MgmtHost(i)
		hostCounters(c, mgmt)
		c["netsim.frames"] += mgmt.NIC.TxCount
	}
	ccCounters(c, cl.Reg.Snapshot())
}

// ccCounters sums every congestion controller mirrored into snap (the
// registries name them cc.<uplink>.acks and so on).
func ccCounters(c map[string]uint64, snap obs.Snapshot) {
	for _, row := range snap.Counters {
		if !strings.HasPrefix(row.Name, "cc.") {
			continue
		}
		for _, kind := range []string{"acks", "timeouts", "losses"} {
			if strings.HasSuffix(row.Name, "."+kind) {
				c["cc."+kind] += row.Value
			}
		}
	}
}
