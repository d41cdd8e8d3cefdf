package main

import (
	"fmt"
	"math/rand"
	"time"

	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// boardWorld is one default Cubieboard2 (core.New: 768 MiB, Jitsu
// reconciler, optimised toolstack, Synjitsu on) with registered
// static-site unikernels and a set of edge clients. cold_storm and
// warm_fetch are both boardWorlds; they differ in what set-up leaves
// booted and in how requests are generated.
type boardWorld struct {
	b       *core.Board
	sites   []site
	clients []*netstack.Host
	out     outcome
	rec     *recorder
	tracer  *obs.Tracer

	// draws is the closed-loop input (warm_fetch): draws[c] is client
	// c's sequence. The open-loop worlds (cold_storm, ladder rungs) have
	// none: their arrivals are already scheduled on the engine.
	draws [][]int

	freeAtStart int
	domsAtStart int
	nextReq     int
	// lastArrival is the due time of the final open-loop request.
	lastArrival sim.Duration
}

func newBoardWorld(seed int64, services, memMiB int, idle sim.Duration, clients int, rec *recorder) *boardWorld {
	w := &boardWorld{rec: rec, tracer: newTracer(rec)}
	w.b = core.New(core.WithSeed(seed), core.WithTracer(w.tracer, 0))
	w.freeAtStart, w.domsAtStart = w.b.Hyp.FreeMemMiB(), w.b.Hyp.Domains()
	for i := 0; i < services; i++ {
		cfg, body := siteConfig(i, w.b.Cfg.Zone, memMiB, idle)
		w.sites = append(w.sites, site{name: cfg.Name, ip: cfg.IP, body: body, svc: w.b.Jitsu.Register(cfg)})
	}
	for c := 0; c < clients; c++ {
		w.clients = append(w.clients, w.b.AddClient(fmt.Sprintf("client%d", c), netstack.IPv4(10, 0, 0, byte(3+c))))
	}
	return w
}

// The cold_storm shape: 200 services that reap after 2 s idle, so a
// uniformly drawn service is almost always stopped.
const (
	coldServices = 200
	coldMemMiB   = 16
	coldIdle     = 2 * time.Second
	coldClients  = 8
	coldRate     = 8.0
	coldHorizon  = 180 * time.Second
)

// newColdStorm builds the open-loop world: Poisson arrivals at rate per
// second over horizon, scheduled as events on the virtual clock, so the
// generator is never late by construction.
func newColdStorm(seed int64, rate float64, horizon sim.Duration, rec *recorder) *boardWorld {
	w := newBoardWorld(seed, coldServices, coldMemMiB, coldIdle, coldClients, rec)
	for _, a := range poissonTrace(subSeed(seed, 1), rate, horizon, coldServices, coldClients) {
		w.b.Eng.At(a.at, func() { w.fetch(a.client, a.svc, nil) })
		w.lastArrival = a.at
	}
	return w
}

const (
	warmServices = 16
	warmClients  = 4
	warmFetches  = 40000
)

// newWarmFetch builds the closed-loop world: every service is booted
// during set-up and never reaps, so the timed section touches neither
// the toolstack nor XenStore.
func newWarmFetch(seed int64, fetches int, rec *recorder) *boardWorld {
	w := newBoardWorld(seed, warmServices, coldMemMiB, 0, warmClients, rec)
	w.rec = nil // the warm-up boots are set-up, not requests
	for s := range w.sites {
		w.fetch(s%warmClients, s, nil)
	}
	w.b.Eng.Run()
	if len(w.out.lat) != warmServices {
		w.out.violate("warm-up: %d of %d boots failed", warmServices-len(w.out.lat), warmServices)
	}
	w.out.attempted, w.out.firstFailed, w.out.lat, w.nextReq = 0, 0, nil, 0
	w.rec = rec
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	w.draws = make([][]int, warmClients)
	for i := 0; i < fetches; i++ {
		c := i % warmClients
		w.draws[c] = append(w.draws[c], rng.Intn(warmServices))
	}
	w.out.lat = make([]sim.Duration, 0, fetches)
	return w
}

func (w *boardWorld) run() {
	for c := range w.draws {
		w.nextDraw(c, 0)
	}
	w.b.Eng.Run()
}

// nextDraw issues client c's i-th fetch and chains the next one on its
// completion: four clients, each with exactly one request in flight.
func (w *boardWorld) nextDraw(c, i int) {
	if i >= len(w.draws[c]) {
		return
	}
	w.fetch(c, w.draws[c][i], func() { w.nextDraw(c, i+1) })
}

// fetch is one request: resolve the service at the board's nameserver,
// then GET / from the answered address — the Figure 9a transaction,
// written out here (and not through Board.FetchViaDNS) so the benchmark
// can check the DNS answer and span each leg. then (may be nil) runs
// once the request is over.
func (w *boardWorld) fetch(client, svc int, then func()) {
	eng, host, st := w.b.Eng, w.clients[client], &w.sites[svc]
	start := eng.Now()
	w.nextReq++
	req := w.nextReq
	w.out.attempted++
	root := w.rec.begin(req, -1, "bench", "fetch", svcKey(st.name), start)
	var attempt func(n int)
	over := func(err error, n int) {
		ok := err == nil
		if !ok && n == 0 {
			w.out.firstFailed++
			attempt(1)
			return
		}
		w.rec.end(root, eng.Now())
		if ok {
			w.out.lat = append(w.out.lat, eng.Now()-start)
		} else {
			w.out.failedRequest("%s at %v: %v", st.name, start, err)
		}
		if then != nil {
			then()
		}
	}
	attempt = func(n int) {
		began := eng.Now()
		resolver := &dns.Client{Host: host}
		qs := w.rec.begin(req, root, "dns", "dns.query", "", began)
		resolver.Query(core.NSAddr, st.name, dns.TypeA, fetchTimeout, func(m *dns.Message, _ sim.Duration, err error) {
			w.rec.end(qs, eng.Now())
			if err == nil && (m.RCode != dns.RCodeNoError || len(m.Answers) == 0) {
				err = fmt.Errorf("dns %v", m.RCode)
			}
			if err != nil {
				over(err, n)
				return
			}
			if m.Answers[0].A != st.ip {
				w.out.violate("%s resolved to %v, registered at %v", st.name, m.Answers[0].A, st.ip)
			}
			gs := w.rec.begin(req, root, "netstack", "http.get", "", eng.Now())
			host.HTTPGet(m.Answers[0].A, 80, "/", fetchTimeout-(eng.Now()-began), func(resp *netstack.HTTPResponse, _ sim.Duration, err error) {
				w.rec.end(gs, eng.Now())
				if err != nil {
					over(err, n)
					return
				}
				checkResponse(&w.out, st.name, st.body, resp)
				// A guest launched inside this attempt's lifetime is the
				// cold start this fetch paid for; its boot marks are the
				// toolstack and unikernel shares of the latency.
				if g := st.svc.Guest; w.rec != nil && g != nil && g.LaunchedAt >= began {
					w.rec.child(root, "xen", "xen.build", g.LaunchedAt, g.BuiltAt)
					w.rec.child(root, "unikernel", "unikernel.netup", g.BuiltAt, g.NetworkUpAt)
					w.rec.child(root, "unikernel", "unikernel.ready", g.BuiltAt, g.ReadyAt)
				}
				over(nil, n)
			})
		})
	}
	attempt(0)
}

// finish checks conservation once the engine has drained: every reaped
// domain's memory is back and no guest domain is left.
func (w *boardWorld) finish() {
	if w.draws != nil {
		return // warm_fetch keeps its sixteen guests by design
	}
	if free := w.b.Hyp.FreeMemMiB(); free != w.freeAtStart {
		w.out.violate("board ends with %d MiB free, started with %d", free, w.freeAtStart)
	}
	if doms := w.b.Hyp.Domains(); doms != w.domsAtStart {
		w.out.violate("board ends with %d domains, started with %d", doms, w.domsAtStart)
	}
}

func (w *boardWorld) outcome() *outcome        { return &w.out }
func (w *boardWorld) virtualNow() sim.Duration { return w.b.Eng.Now() }
func (w *boardWorld) flight() *obs.Tracer      { return w.tracer }

func (w *boardWorld) counters() map[string]uint64 {
	c := map[string]uint64{}
	boardCounters(c, w.b)
	for _, h := range w.clients {
		hostCounters(c, h)
	}
	c["sim.fired"] = w.b.Eng.Fired()
	c["sim.max_pending"] = uint64(w.b.Eng.MaxPending())
	return c
}

// boardCounters adds one board's layer counts to c.
func boardCounters(c map[string]uint64, b *core.Board) {
	st := b.Store.Stats()
	c["xenstore.ops"] += st.Ops
	c["xenstore.commits"] += st.Commits
	c["xenstore.conflicts"] += st.Conflicts
	c["xenstore.watch_events"] += st.Watches
	c["xen.tx_retries"] += b.TS.TxRetries
	c["dns.queries"] += b.DNS.Queries
	c["dns.cache_hits"] += b.DNS.CacheHits
	c["dns.cache_misses"] += b.DNS.CacheMisses
	c["dns.epoch_bumps"] += b.DNS.Epoch
	c["netsim.frames"] += b.Bridge.Forwarded + b.Bridge.Flooded
	hostCounters(c, b.NS)
	if b.Syn != nil {
		hostCounters(c, b.Syn.Host)
		c["core.syn_handoffs"] += b.Syn.HandedOff
	}
	for _, svc := range b.Jitsu.Services() {
		c["xen.launches"] += svc.Launches
		c["core.cold_starts"] += svc.ColdStarts
		c["core.reaps"] += svc.Reaps
		c["core.servfails"] += svc.ServFails
	}
	if b.Disk != nil {
		c["blockdev.reads"] += b.Disk.Reads
		c["blockdev.writes"] += b.Disk.Writes
	}
}

// hostCounters adds one long-lived endpoint's stack and NIC counts.
// Guest stacks are not counted: they are unreachable once reaped, and
// every packet of a request also crosses a client or dom0 endpoint.
func hostCounters(c map[string]uint64, h *netstack.Host) {
	c["netstack.pkts"] += h.RxPackets + h.TxPackets
	c["netstack.rx_dropped"] += h.RxDropped
	c["netstack.arp_retries"] += h.ARPRetries
	c["netsim.drops"] += h.NIC.Drops
	if l := h.NIC.Link(); l != nil {
		c["netsim.drops"] += l.Stats.Dropped
	}
}
