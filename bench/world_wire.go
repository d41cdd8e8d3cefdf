package main

import (
	"math/rand"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/blockdev"
	"jitsu/internal/cluster"
	"jitsu/internal/core"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
	"jitsu/internal/wire"
	"jitsu/internal/xen"
)

// The operator_wire shape is jitsud -connect grown to a sustained
// script: a 4-board cluster with the disk tier, three scoped sessions
// dialled from consoles on the management network, 64 services
// registered over the wire, a 250 ms stats stream open throughout.
const (
	wireBoards    = 4
	wireServices  = 64
	wireRounds    = 400
	wireSettle    = 400 * time.Millisecond
	wireWatchTick = 250 * time.Millisecond
	// wireRefuseEvery: every so many rounds the read-only viewer
	// oversteps with a Migrate that must come back unauthorized.
	wireRefuseEvery = 50
)

type wireWorld struct {
	c      *cluster.Cluster
	srv    *wire.Server
	admin  *wire.Client
	ops    *wire.Client
	viewer *wire.Client
	hosts  []*netstack.Host
	names  []string
	draws  []int
	out    outcome
	rec    *recorder
	tracer *obs.Tracer

	statsEvents int
	nextReq     int
}

func newOperatorWire(seed int64, rounds int, rec *recorder) *wireWorld {
	w := &wireWorld{rec: rec, tracer: newTracer(rec)}
	opts := []cluster.Option{
		cluster.WithBoards(wireBoards),
		cluster.WithSeed(seed),
		// The disk tier gives Demote/Promote something real to do.
		cluster.WithBoardOptions(core.WithDisk(blockdev.DefaultConfig())),
	}
	if w.tracer != nil {
		opts = append(opts, cluster.WithTracer(w.tracer, 0))
	}
	w.c = cluster.NewCluster(opts...)
	srv, err := w.c.ServeWire(cluster.WireConfig{
		Apps: func(name string, _ xen.GuestKind) unikernel.App { return unikernel.NewStaticSiteApp(name) },
		Keyring: map[string]api.Scope{
			"bench-admin": api.ScopeAdmin,
			"bench-ops":   api.ScopeOperator,
			"bench-ro":    api.ScopeReadOnly,
		},
		Anonymous: api.ScopeNone,
	})
	if err != nil {
		w.out.violate("serve wire: %v", err)
		return w
	}
	w.srv = srv
	dial := func(role, token string, octet byte) *wire.Client {
		console := w.c.AttachMgmtHost(role, octet)
		w.hosts = append(w.hosts, console)
		cl, err := wire.DialSession(w.c.Eng(), console, w.c.MgmtHost(0).IP, wire.DefaultPort,
			wire.SessionConfig{Token: token})
		if err != nil {
			w.out.violate("dial %s: %v", role, err)
		}
		return cl
	}
	w.admin = dial("admin", "bench-admin", 200)
	w.ops = dial("operator", "bench-ops", 201)
	w.viewer = dial("viewer", "bench-ro", 202)
	if len(w.out.violations) > 0 {
		return w
	}
	for i := 0; i < wireServices; i++ {
		cfg, _ := siteConfig(i, w.c.Cfg.Board.Zone, coldMemMiB, 0)
		cfg.Image.App = nil // apps do not cross the wire; the server's resolver re-attaches them
		if resp := w.admin.Register(api.RegisterRequest{Config: cfg}); resp.Err != nil {
			w.out.violate("register %s: %v", cfg.Name, resp.Err)
		}
		w.names = append(w.names, cfg.Name)
	}
	watch := w.viewer.WatchStats(api.WatchStatsRequest{Every: wireWatchTick, OnStats: func(s api.StatsResponse) bool {
		w.statsEvents++
		if len(s.Services) != wireServices {
			w.out.violate("stats event lists %d services, want %d", len(s.Services), wireServices)
		}
		return true
	}})
	if watch.Err != nil {
		w.out.violate("watch stats: %v", watch.Err)
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	// Never the same service twice running: an Activate that races the
	// previous round's Stop finds the old domain still being destroyed
	// and fails with "domain name already exists".
	prev := -1
	for i := 0; i < rounds; i++ {
		d := rng.Intn(wireServices - 1)
		if d >= prev && prev >= 0 {
			d++
		}
		w.draws = append(w.draws, d)
		prev = d
	}
	return w
}

// verb runs one wire verb as one request: the span and the latency are
// the round trip the operator sees; want is the api.Code the script
// expects (0 = success). Any other answer is a failure.
func (w *wireWorld) verb(name string, want api.Code, call func() *api.Error) {
	eng := w.c.Eng()
	start := eng.Now()
	w.nextReq++
	w.out.attempted++
	root := w.rec.begin(w.nextReq, -1, "wire", "verb."+name, "", start)
	err := call()
	w.rec.end(root, eng.Now())
	got := api.Code(0)
	if err != nil {
		got = err.Code
	}
	if got != want {
		w.out.firstFailed++
		w.out.failedRequest("%s at %v answered %v, script expects %v (%v)", name, start, got, want, err)
		if want != 0 {
			// A scripted refusal must carry exactly its code.
			w.out.violate("%s answered %v, script expects %v", name, got, want)
		}
		return
	}
	w.out.lat = append(w.out.lat, eng.Now()-start)
}

func (w *wireWorld) stats() {
	w.verb("stats", 0, func() *api.Error {
		resp := w.viewer.Stats(api.StatsRequest{})
		if resp.Err == nil && len(resp.Services) != wireServices {
			w.out.violate("stats lists %d services, want %d", len(resp.Services), wireServices)
		}
		return resp.Err
	})
}

// run is the operator script: each round walks one seeded-random
// service through running -> cold-on-disk -> warm -> cold, with the
// viewer reading stats between the lifecycle verbs.
func (w *wireWorld) run() {
	if len(w.out.violations) > 0 {
		return
	}
	eng := w.c.Eng()
	for round, svc := range w.draws {
		name := w.names[svc]
		w.verb("activate", 0, func() *api.Error { return w.admin.Activate(api.ActivateRequest{Name: name}).Err })
		w.stats()
		eng.RunFor(wireSettle)
		w.verb("demote", 0, func() *api.Error { return w.ops.Demote(api.DemoteRequest{Name: name}).Err })
		w.stats()
		eng.RunFor(wireSettle)
		w.verb("promote", 0, func() *api.Error { return w.ops.Promote(api.PromoteRequest{Name: name}).Err })
		eng.RunFor(wireSettle)
		w.verb("stop", 0, func() *api.Error { return w.ops.Stop(api.StopRequest{Name: name}).Err })
		w.stats()
		if (round+1)%wireRefuseEvery == 0 {
			w.verb("migrate-refused", api.CodeUnauthorized, func() *api.Error {
				return w.viewer.Migrate(api.MigrateRequest{Name: name}).Err
			})
		}
	}
}

// finish closes the sessions and checks nothing is left registered on
// either side of the wire.
func (w *wireWorld) finish() {
	if w.srv == nil {
		return
	}
	for _, cl := range []*wire.Client{w.admin, w.ops, w.viewer} {
		if cl == nil {
			continue
		}
		cl.Close()
		if cl.Pending() != 0 {
			w.out.violate("client has %d pending registrations after Close", cl.Pending())
		}
	}
	w.c.Eng().RunFor(time.Second)
	if n := w.srv.ActiveWatches(); n != 0 {
		w.out.violate("server has %d active watches after every client closed", n)
	}
	if w.statsEvents == 0 {
		w.out.violate("the stats stream delivered no event")
	}
}

func (w *wireWorld) outcome() *outcome        { return &w.out }
func (w *wireWorld) virtualNow() sim.Duration { return w.c.Eng().Now() }
func (w *wireWorld) flight() *obs.Tracer      { return w.tracer }

func (w *wireWorld) counters() map[string]uint64 {
	c := map[string]uint64{}
	clusterCounters(c, w.c)
	for _, h := range w.hosts {
		hostCounters(c, h)
		c["netsim.frames"] += h.NIC.TxCount
	}
	if w.srv != nil {
		c["wire.frames"] = w.srv.Frames
		c["wire.unauthorized"] = w.srv.Unauthorized
		c["wire.proto_errs"] = w.srv.ProtoErrs
	}
	for _, cl := range []*wire.Client{w.admin, w.ops, w.viewer} {
		if cl != nil {
			c["wire.frames"] += cl.Frames
			c["wire.event_frames"] += cl.Events
		}
	}
	c["sim.fired"] = w.c.Eng().Fired()
	c["sim.max_pending"] = uint64(w.c.Eng().MaxPending())
	return c
}
