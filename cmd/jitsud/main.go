// Command jitsud runs a simulated Jitsu deployment end-to-end: it
// registers a set of per-person web services, replays a client request
// trace against them, and prints the per-request latency timeline plus
// a resource summary — a day in the life of the embedded cloud from
// §3.3.2.
//
// With -boards N (N > 1) it runs a whole edge cluster fronted by the
// control plane's directory and placement scheduler; -policy selects
// the placement policy. Membership is dynamic: -join T adds a board at
// virtual time T, -leave T makes the highest-numbered board leave
// gracefully at T (its warm replicas migrate off), and -churn is
// shorthand for a default join/leave schedule with the gossip failure
// detector probing actively.
//
// Cluster runs can replay the trace over a hostile edge: -loss and
// -jitter impair the client's uplink netem-style (seeded, deterministic),
// -partition cuts the whole edge link at T (healing at T2 when given
// "T,T2"), and -no-dns-retry turns off the client's DNS retry/backoff —
// the single-datagram ablation the hostile experiments measure.
//
// With -clusters M (M > 1) it runs a federation: M clusters of -boards
// boards each behind a summarized root directory. Queries resolve at
// the root (which delegates to the owning cluster), services home on
// the least-loaded cluster, refusals spill across clusters, and
// sustained load skew sheds warm replicas between clusters — all
// automatic.
//
// With -connect the cluster is driven *remotely*: board 0 serves the
// control plane as a wire.Server on its management endpoint, and an
// operator console host dialled in over the simulated network issues
// every verb — register, activate, stats, demote, promote, migrate,
// stop — as versioned length-prefixed frames. The console link is
// captured and its fingerprint printed, so two same-seed runs can be
// diffed down to the last frame. -wan shapes management paths to a WAN
// preset (wan20ms|wan50ms|wan100ms): the federation's inter-cluster
// links in -clusters mode, the operator console link in -connect mode.
//
// Usage:
//
//	jitsud [-services 4] [-requests 24] [-idle 30s] [-no-synjitsu] [-seed 1]
//	       [-boards 1] [-policy least-loaded] [-min-warm 0]
//	       [-churn] [-join 20s] [-leave 30s]
//	       [-loss 0.1] [-jitter 1ms] [-partition 20s,30s] [-no-dns-retry]
//	       [-clusters 1] [-connect] [-wan wan20ms]
//	       [-trace run.trace.json] [-stats-every 10s]
//	       [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -trace dumps the run's flight recorder (virtual-time spans for every
// boot, restore, migration and gossip event) as Chrome trace-event JSON
// for chrome://tracing / Perfetto; -stats-every streams a counter
// snapshot line over the control plane's WatchStats verb.
// -cpuprofile/-memprofile write pprof profiles of the run itself (host
// time, not virtual): go tool pprof -top cpu.out.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/blockdev"
	"jitsu/internal/cluster"
	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/metrics"
	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
	"jitsu/internal/wire"
	"jitsu/internal/xen"
)

var serviceNames = []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"}

func main() {
	services := flag.Int("services", 4, "number of registered services")
	requests := flag.Int("requests", 24, "requests in the trace")
	idle := flag.Duration("idle", 30*time.Second, "service idle timeout (0 = never stop)")
	noSyn := flag.Bool("no-synjitsu", false, "disable the connection proxy")
	seed := flag.Int64("seed", 1, "simulation seed")
	boards := flag.Int("boards", 1, "boards in the deployment (>1 runs the cluster control plane)")
	policy := flag.String("policy", "least-loaded", "placement policy: first-fit|round-robin|least-loaded|power-aware")
	minWarm := flag.Int("min-warm", 0, "warm-pool floor per service (cluster mode)")
	disk := flag.Bool("disk", false, "enable the per-board disk checkpoint tier: idle services demote to disk and page back in on demand")
	churn := flag.Bool("churn", false, "cluster mode: run a default join/leave schedule under active gossip probing")
	joinAt := flag.Duration("join", 0, "cluster mode: a new board joins at this virtual time (0 = never)")
	leaveAt := flag.Duration("leave", 0, "cluster mode: the highest board leaves gracefully at this virtual time (0 = never)")
	clusters := flag.Int("clusters", 1, "clusters in the deployment (>1 runs the federation tier over -boards boards each)")
	loss := flag.Float64("loss", 0, "cluster mode: random loss rate (0..1) on the client's edge uplink")
	jitter := flag.Duration("jitter", 0, "cluster mode: latency jitter on the client's edge uplink")
	partition := flag.String("partition", "", "cluster mode: cut the client's edge link at T (e.g. 20s), healing at T2 when given as T,T2 (e.g. 20s,30s)")
	noRetry := flag.Bool("no-dns-retry", false, "disable the client's DNS retry/backoff — the single-datagram ablation")
	traceOut := flag.String("trace", "", "write the run's flight recorder to this file (Chrome trace-event JSON)")
	statsEvery := flag.Duration("stats-every", 0, "stream a stats snapshot line every this much virtual time (0 = off)")
	connect := flag.Bool("connect", false, "cluster mode: drive the deployment as a remote operator — a wire client dialled into board 0's management endpoint issues every control-plane verb as versioned frames over the simulated network")
	wan := flag.String("wan", "", "shape management links to a WAN preset (wan20ms|wan50ms|wan100ms): federation links in -clusters mode, the operator console link in -connect mode")
	profiles := obs.ProfileFlags(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := profiles.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jitsud: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles() // a run that fails (os.Exit) writes no profile

	var wanProf *netsim.WANProfile
	if *wan != "" {
		p, ok := netsim.WANByName(*wan)
		if !ok {
			fmt.Fprintf(os.Stderr, "jitsud: unknown -wan profile %q; presets:", *wan)
			for _, q := range netsim.WANProfiles() {
				fmt.Fprintf(os.Stderr, " %s", q.Name)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(2)
		}
		wanProf = &p
	}

	hostile := hostileFlags{loss: *loss, jitter: *jitter, partition: *partition, noRetry: *noRetry}
	if hostile.active() && (*boards < 2 || *clusters > 1) {
		fmt.Fprintln(os.Stderr, "jitsud: -loss/-jitter/-partition/-no-dns-retry need cluster mode (-boards > 1, -clusters 1)")
		os.Exit(2)
	}
	if _, _, err := hostile.parsePartition(); err != nil {
		fmt.Fprintf(os.Stderr, "jitsud: bad -partition: %v\n", err)
		os.Exit(2)
	}

	if *services < 1 {
		*services = 1
	}
	if *services > len(serviceNames) {
		*services = len(serviceNames)
	}
	if *churn {
		// A default schedule sized to the trace: ~2s per request.
		traceSpan := 2 * time.Second * time.Duration(*requests)
		if *leaveAt == 0 {
			*leaveAt = traceSpan / 3
		}
		if *joinAt == 0 {
			*joinAt = traceSpan / 2
		}
	}
	if *connect {
		if *boards < 2 || *clusters > 1 {
			fmt.Fprintln(os.Stderr, "jitsud: -connect needs cluster mode (-boards > 1, -clusters 1)")
			os.Exit(2)
		}
		if *churn || *joinAt > 0 || *leaveAt > 0 || hostile.active() {
			fmt.Fprintln(os.Stderr, "jitsud: -connect runs a scripted operator session; -churn/-join/-leave and the edge-impairment flags do not apply")
			os.Exit(2)
		}
		runConnect(*boards, *services, *seed, *policy, wanProf, *statsEvery)
		return
	}
	if wanProf != nil && *clusters < 2 {
		fmt.Fprintln(os.Stderr, "jitsud: -wan shapes management links in federation mode (-clusters > 1) or -connect mode")
		os.Exit(2)
	}
	if *clusters > 1 {
		if *churn || *joinAt > 0 || *leaveAt > 0 {
			fmt.Fprintln(os.Stderr, "jitsud: -churn/-join/-leave apply to cluster mode, not federation mode")
			os.Exit(2)
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "idle" {
				fmt.Fprintln(os.Stderr, "jitsud: -idle is ignored in federation mode (the warm-pool managers own replica lifecycle)")
			}
		})
		if *statsEvery > 0 {
			fmt.Fprintln(os.Stderr, "jitsud: -stats-every applies to board/cluster mode, not federation mode")
		}
		runFederation(*clusters, *boards, *services, *requests, *seed, *policy, *minWarm, !*noSyn, wanProf, *traceOut)
		return
	}
	if *boards > 1 {
		idleSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "idle" {
				idleSet = true
			}
		})
		if idleSet {
			fmt.Fprintln(os.Stderr, "jitsud: -idle is ignored in cluster mode (the warm-pool manager owns replica lifecycle)")
		}
		runCluster(*boards, *services, *requests, *seed, *policy, *minWarm, !*noSyn, *disk, *joinAt, *leaveAt, hostile, *traceOut, *statsEvery)
		return
	}
	if *joinAt > 0 || *leaveAt > 0 {
		fmt.Fprintln(os.Stderr, "jitsud: -churn/-join/-leave need cluster mode (-boards > 1)")
		os.Exit(2)
	}

	tracer := newTracer(*traceOut)
	opts := []core.Option{core.WithSeed(*seed), core.WithSynjitsu(!*noSyn), core.WithTracer(tracer, 0)}
	if *disk {
		opts = append(opts, core.WithDisk(blockdev.DefaultConfig()))
	}
	b := core.New(opts...)
	ctl := api.ForBoard(b)
	stopStats := streamStats(ctl, *statsEvery, b.Eng.Now)

	names := serviceNames
	for i := 0; i < *services; i++ {
		n := names[i]
		resp := ctl.Register(api.RegisterRequest{Config: core.ServiceConfig{
			Name:        n + "." + b.Cfg.Zone,
			IP:          netstack.IPv4(10, 0, 0, byte(20+i)),
			Port:        80,
			IdleTimeout: *idle,
			Image:       unikernel.UnikernelImage(n, unikernel.NewStaticSiteApp(n)),
		}})
		if resp.Err != nil {
			fmt.Fprintf(os.Stderr, "jitsud: %v\n", resp.Err)
			os.Exit(1)
		}
	}
	client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))

	fmt.Printf("jitsud: %s, synjitsu=%v, %d services, idle timeout %v\n\n",
		b.Hyp, b.Cfg.Synjitsu, *services, *idle)
	fmt.Printf("%-12s %-22s %-8s %-12s %s\n", "time", "request", "status", "latency", "note")

	lat := &metrics.Series{Name: "request latency"}
	cold, warm, diskRestores := 0, 0, 0
	var issue func(i int)
	issue = func(i int) {
		if i >= *requests {
			stopStats()
			return
		}
		name := names[i%*services] + "." + b.Cfg.Zone
		svc, _ := b.Jitsu.Service(name)
		prior := svc.State
		if *disk && prior == core.StateColdDisk && i%8 == 7 {
			// Page the service in via the explicit Promote verb before
			// fetching: the activation then joins the in-flight disk
			// restore instead of starting its own.
			if resp := ctl.Promote(api.PromoteRequest{Name: name}); resp.Err == nil {
				fmt.Printf("%-12v %-22s %-8s %-12s %s\n",
					b.Eng.Now().Round(time.Millisecond), name, "-", "-", "promote: paging in from disk")
			}
		}
		b.FetchViaDNS(client, name, "/", 30*time.Second,
			func(resp *netstack.HTTPResponse, d sim.Duration, err error) {
				note := "warm"
				switch {
				case prior == core.StateColdDisk:
					note = "DISK RESTORE"
					diskRestores++
				case prior.NeedsLaunch():
					note = "COLD START"
					cold++
				default:
					warm++
				}
				status := "ERR"
				if err == nil {
					status = fmt.Sprint(resp.Status)
					lat.Add(d)
				}
				fmt.Printf("%-12v %-22s %-8s %-12v %s\n", b.Eng.Now().Round(time.Millisecond), name, status, d.Round(100*time.Microsecond), note)
				// Think time between requests: sometimes short (stays
				// warm), sometimes beyond the idle timeout.
				gap := 2 * time.Second
				if i%4 == 3 && *idle > 0 {
					gap = *idle + 5*time.Second
					if *disk {
						// Park the just-served service on disk via the
						// explicit Demote verb instead of letting the
						// idle reaper evict it: the next visit pages it
						// back in at disk-restore cost, not a full boot.
						if resp := ctl.Demote(api.DemoteRequest{Name: name}); resp.Err == nil {
							fmt.Printf("%-12v %-22s %-8s %-12s %s\n",
								b.Eng.Now().Round(time.Millisecond), name, "-", "-", "demote: checkpointing to disk")
						}
					}
				}
				b.Eng.After(gap, func() { issue(i + 1) })
			})
	}
	issue(0)
	b.Eng.Run()
	dumpTrace(*traceOut, tracer)

	fmt.Printf("\n%s\n", lat.Summary())
	fmt.Printf("cold starts: %d, warm hits: %d, disk restores: %d\n", cold, warm, diskRestores)
	fmt.Printf("domains now: %d (incl. dom0), free memory: %d MiB\n", b.Hyp.Domains(), b.Hyp.FreeMemMiB())
	if b.Syn != nil {
		fmt.Printf("synjitsu: %d connections proxied, %d handed off, %d SYN-triggered launches\n",
			b.Syn.Proxied, b.Syn.HandedOff, b.Syn.SYNTriggeredLaunches)
	}
	stats := ctl.Stats(api.StatsRequest{})
	reaps := uint64(0)
	for _, svc := range stats.Services {
		reaps += svc.Reaps
	}
	fmt.Printf("idle reaps: %d — VMs run only while traffic needs them\n", reaps)
	fmt.Printf("trigger firings:")
	for _, t := range stats.Triggers {
		fmt.Printf(" %s=%d", t.Name, t.Fired)
	}
	fmt.Println()
}

// hostileFlags groups the edge-impairment knobs: -loss/-jitter degrade
// the client's uplink from t=0 (a netem-style seeded impairment below
// the bridge), -partition cuts the whole edge link at T (healing at T2
// when given "T,T2"), and -no-dns-retry is the single-datagram
// ablation — the client keeps its hardened retry/backoff policy
// otherwise, so lost queries recover instead of burning the full fetch
// timeout.
type hostileFlags struct {
	loss      float64
	jitter    time.Duration
	partition string
	noRetry   bool
}

func (h hostileFlags) active() bool {
	return h.loss > 0 || h.jitter > 0 || h.partition != "" || h.noRetry
}

// parsePartition decodes -partition's "T" or "T,T2" (heal 0 = never).
func (h hostileFlags) parsePartition() (cut, heal time.Duration, err error) {
	if h.partition == "" {
		return 0, 0, nil
	}
	parts := strings.SplitN(h.partition, ",", 2)
	if cut, err = time.ParseDuration(strings.TrimSpace(parts[0])); err != nil {
		return 0, 0, err
	}
	if cut <= 0 {
		return 0, 0, fmt.Errorf("cut time %v is not positive", cut)
	}
	if len(parts) == 2 {
		if heal, err = time.ParseDuration(strings.TrimSpace(parts[1])); err != nil {
			return 0, 0, err
		}
		if heal <= cut {
			return 0, 0, fmt.Errorf("heal time %v is not after cut time %v", heal, cut)
		}
	}
	return cut, heal, nil
}

// apply scripts the flags against the client's edge link. Loss and
// jitter hit the uplink only (the client NIC sits at the link's A end):
// requests die on the way out, answers arrive clean — the classic
// congested-edge asymmetry, and exactly the leg the DNS retry policy
// covers. A partition cuts both directions.
func (h hostileFlags) apply(eng *sim.Engine, link *netsim.Link, seed int64) {
	if h.loss > 0 || h.jitter > 0 {
		link.ImpairAtoB(netsim.Impairment{Loss: h.loss, Jitter: h.jitter}, seed)
		fmt.Printf("%-12v ** edge uplink impaired: loss=%.0f%% jitter=%v\n",
			eng.Now(), h.loss*100, h.jitter)
	}
	cut, heal, _ := h.parsePartition()
	if cut > 0 {
		eng.At(cut, func() {
			link.Partition()
			fmt.Printf("%-12v ** edge link partitioned\n", eng.Now().Round(time.Millisecond))
		})
	}
	if heal > 0 {
		eng.At(heal, func() {
			link.Heal()
			fmt.Printf("%-12v ** edge link healed\n", eng.Now().Round(time.Millisecond))
		})
	}
}

// newTracer builds the flight recorder when -trace is set (nil — which
// every tracing call tolerates — otherwise).
func newTracer(path string) *obs.Tracer {
	if path == "" {
		return nil
	}
	return obs.NewTracer(1 << 16)
}

// dumpTrace writes the recorder as Chrome trace-event JSON (no-op when
// tracing is off).
func dumpTrace(path string, tr *obs.Tracer) {
	if tr == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jitsud: %v\n", err)
		os.Exit(1)
	}
	if err := obs.WriteChromeTrace(f, tr); err == nil {
		err = f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "jitsud: write trace: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\ntrace: %s (%d events, %d dropped)\n", path, tr.Len(), tr.Dropped())
}

// streamStats starts the -stats-every printer over the control plane's
// WatchStats verb; the returned stop cancels the stream so the event
// queue can drain once the trace completes.
func streamStats(ctl api.ControlPlane, every time.Duration, now func() sim.Duration) func() {
	if every <= 0 {
		return func() {}
	}
	resp := ctl.WatchStats(api.WatchStatsRequest{Every: every, OnStats: func(s api.StatsResponse) bool {
		var launches, cold, queries, hits uint64
		for _, reg := range s.Registries {
			for _, c := range reg.Counters {
				switch c.Name {
				case "activation.launches":
					launches += c.Value
				case "activation.cold_starts":
					cold += c.Value
				case "dns.queries":
					queries += c.Value
				case "dns.cache_hits":
					hits += c.Value
				}
			}
		}
		fmt.Printf("%-12v ** stats: launches=%d cold=%d dns-queries=%d dns-cache-hits=%d\n",
			now().Round(time.Millisecond), launches, cold, queries, hits)
		return true
	}})
	if resp.Err != nil {
		fmt.Fprintf(os.Stderr, "jitsud: %v\n", resp.Err)
		os.Exit(1)
	}
	return resp.Stop
}

// runCluster is the multi-board mode: the same request trace, but
// placed by the control plane instead of answered by one board.
func runCluster(boards, services, requests int, seed int64, policyName string, minWarm int, synjitsu, disk bool, joinAt, leaveAt time.Duration, hostile hostileFlags, traceOut string, statsEvery time.Duration) {
	pol := cluster.PolicyByName(policyName)
	if pol == nil {
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", policyName)
		os.Exit(2)
	}
	tracer := newTracer(traceOut)
	boardOpts := []core.Option{core.WithSynjitsu(synjitsu)}
	if disk {
		// With a disk tier, the pool manager and preemptor demote cold
		// replicas to disk instead of destroying them.
		boardOpts = append(boardOpts, core.WithDisk(blockdev.DefaultConfig()))
	}
	copts := []cluster.Option{
		cluster.WithBoards(boards),
		cluster.WithSeed(seed),
		cluster.WithBoardOptions(boardOpts...),
		cluster.WithPolicy(pol),
		cluster.WithTracer(tracer, 0),
	}
	if joinAt > 0 || leaveAt > 0 {
		// Membership churn ahead: run the gossip failure detector.
		copts = append(copts, cluster.WithProbing(time.Second, 0, 0))
	}
	c := cluster.NewCluster(copts...)
	traceDone := false
	if joinAt > 0 {
		c.Eng().At(joinAt, func() {
			if traceDone {
				// The run has quiesced (StopMembership already ran); a
				// new probing agent would keep the event queue alive
				// forever.
				fmt.Printf("%-12v ** join skipped: trace already complete\n", c.Eng().Now().Round(time.Millisecond))
				return
			}
			m := c.AddBoard()
			fmt.Printf("%-12v ** board %d joining (gossip join -> directory)\n", c.Eng().Now().Round(time.Millisecond), m.ID)
		})
	}
	if leaveAt > 0 {
		c.Eng().At(leaveAt, func() {
			// Highest-numbered board still taking placements (a -join
			// that fired earlier may have outnumbered the initial set).
			id := -1
			for _, m := range c.Members() {
				if m.ID != 0 && m.Placeable() {
					id = m.ID
				}
			}
			if id < 0 {
				fmt.Printf("%-12v ** no board can leave\n", c.Eng().Now().Round(time.Millisecond))
				return
			}
			fmt.Printf("%-12v ** board %d leaving gracefully (migrating warm replicas)\n", c.Eng().Now().Round(time.Millisecond), id)
			if err := c.Leave(id, func() {
				fmt.Printf("%-12v ** board %d left (%d migrations so far)\n", c.Eng().Now().Round(time.Millisecond), id, c.Migrations)
			}); err != nil {
				fmt.Printf("%-12v ** board %d cannot leave: %v\n", c.Eng().Now().Round(time.Millisecond), id, err)
			}
		})
	}

	ctl := c.API()
	stopStats := streamStats(ctl, statsEvery, c.Eng().Now)
	zone := c.Cfg.Board.Zone
	for i := 0; i < services; i++ {
		n := serviceNames[i]
		resp := ctl.Register(api.RegisterRequest{MinWarm: minWarm, Config: core.ServiceConfig{
			Name:  n + "." + zone,
			IP:    netstack.IPv4(10, 0, 0, byte(20+i)),
			Port:  80,
			Image: unikernel.UnikernelImage(n, unikernel.NewStaticSiteApp(n)),
		}})
		if resp.Err != nil {
			fmt.Fprintf(os.Stderr, "jitsud: %v\n", resp.Err)
			os.Exit(1)
		}
	}
	cl := c.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	if hostile.active() && !hostile.noRetry {
		cl.Retry = dns.DefaultRetry()
	}

	fmt.Printf("jitsud cluster: %d boards, policy %s, synjitsu=%v, %d services, min-warm %d\n\n",
		boards, pol.Name(), synjitsu, services, minWarm)
	fmt.Printf("%-12s %-22s %-8s %-7s %-12s %s\n", "time", "request", "status", "board", "latency", "note")
	hostile.apply(c.Eng(), cl.Host(0).NIC.Link(), seed)

	lat := &metrics.Series{Name: "request latency"}
	var issue func(i int)
	issue = func(i int) {
		if i >= requests {
			// Quiesce the gossip agents so the event queue can drain.
			traceDone = true
			stopStats()
			c.StopMembership()
			return
		}
		name := serviceNames[i%services] + "." + zone
		warmBefore := c.WarmHits
		cl.Fetch(name, "/", 30*time.Second,
			func(board int, resp *netstack.HTTPResponse, d sim.Duration, err error) {
				status, note := "ERR", "PLACED"
				switch {
				case err != nil:
					note = err.Error()
				default:
					status = fmt.Sprint(resp.Status)
					lat.Add(d)
					if c.WarmHits > warmBefore {
						note = "warm"
					}
				}
				fmt.Printf("%-12v %-22s %-8s %-7d %-12v %s\n",
					c.Eng().Now().Round(time.Millisecond), name, status, board, d.Round(100*time.Microsecond), note)
				c.Eng().After(2*time.Second, func() { issue(i + 1) })
			})
	}
	issue(0)
	c.RunAll()
	dumpTrace(traceOut, tracer)

	fmt.Printf("\n%s\n", lat.Summary())
	fmt.Printf("placed: %d, warm hits: %d, refused: %d, preempts: %d, prewarms: %d, reclaims: %d, demotions: %d\n",
		c.Placed, c.WarmHits, c.ServFails, c.Preempts, c.Pools.Prewarms, c.Pools.Reclaims, c.Demotions+c.Pools.Demotions)
	if hostile.active() {
		stats := cl.Host(0).NIC.Link().Stats
		fmt.Printf("edge link: %d frames delivered, %d dropped; dns retries: %d\n",
			stats.Delivered, stats.Dropped, cl.DNSRetries)
	}
	if c.Joins+c.Leaves+c.Confirms > 0 {
		fmt.Printf("membership: %d joined, %d left, %d confirmed dead; %d migrations, %d replicas lost\n",
			c.Joins, c.Leaves, c.Confirms, c.Migrations, c.Lost)
	}
	fmt.Printf("\n%s", c.CounterTable())
	fmt.Printf("trigger firings:")
	for _, t := range ctl.Stats(api.StatsRequest{}).Triggers {
		fmt.Printf(" %s=%d", t.Name, t.Fired)
	}
	fmt.Println()
	for _, m := range c.Members() {
		fmt.Printf("board %d [%s]: %s\n", m.ID, m.State, m.Board.Hyp)
	}
}

// runConnect is the remote-operator mode: the cluster's control plane
// is served by a wire.Server on board 0's management endpoint, and
// three concurrent operator sessions — an admin, an operator and a
// read-only viewer, each holding its own capability token — drive it
// from separate consoles on the same management bridge. The admin
// registers and migrates, the operator runs the demote/promote
// lifecycle, the viewer streams stats and demonstrates a scoped
// refusal that leaves its session healthy. Every verb, response,
// ready event and stats snapshot crosses the simulated network as
// versioned length-prefixed frames; each console link is captured and
// its fingerprint printed, so two same-seed runs can be checked for
// bit-identical wire traffic.
func runConnect(boards, services int, seed int64, policyName string, wanProf *netsim.WANProfile, statsEvery time.Duration) {
	pol := cluster.PolicyByName(policyName)
	if pol == nil {
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", policyName)
		os.Exit(2)
	}
	c := cluster.NewCluster(
		cluster.WithBoards(boards),
		cluster.WithSeed(seed),
		cluster.WithPolicy(pol),
		// The disk tier gives the Demote/Promote verbs something real to
		// do: demoted services park their checkpoint on disk and page
		// back in on promote.
		cluster.WithBoardOptions(core.WithDisk(blockdev.DefaultConfig())),
	)
	srv, err := c.ServeWire(cluster.WireConfig{
		Apps: func(name string, _ xen.GuestKind) unikernel.App { return unikernel.NewStaticSiteApp(name) },
		Keyring: map[string]api.Scope{
			"jitsu-admin": api.ScopeAdmin,
			"jitsu-ops":   api.ScopeOperator,
			"jitsu-ro":    api.ScopeReadOnly,
		},
		Anonymous: api.ScopeNone,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "jitsud: %v\n", err)
		os.Exit(1)
	}

	type operator struct {
		role  string
		token string
		cl    *wire.Client
		tap   *netsim.Capture
	}
	sessions := []*operator{
		{role: "admin", token: "jitsu-admin"},
		{role: "operator", token: "jitsu-ops"},
		{role: "viewer", token: "jitsu-ro"},
	}
	for i, op := range sessions {
		console := c.AttachMgmtHost(op.role, byte(200+i))
		if wanProf != nil {
			wanProf.Apply(console.NIC.Link(), seed+int64(i))
		}
		op.tap = netsim.NewCapture(c.Eng(), 1<<16)
		console.NIC.Link().Tap(op.tap)
		cl, err := wire.DialSession(c.Eng(), console, netstack.IPv4(10, 255, 0, 10),
			wire.DefaultPort, wire.SessionConfig{Token: op.token})
		if err != nil {
			fmt.Fprintf(os.Stderr, "jitsud: dial %s: %v\n", op.role, err)
			os.Exit(1)
		}
		op.cl = cl
	}
	admin, ops, viewer := sessions[0].cl, sessions[1].cl, sessions[2].cl
	if wanProf != nil {
		fmt.Printf("console links shaped to %s: rtt %v, loss %.2f%%, %.0f Mb/s\n",
			wanProf.Name, wanProf.RTT, wanProf.Loss*100, wanProf.BitsPerSec/1e6)
	}
	now := func() time.Duration { return c.Eng().Now().Round(time.Millisecond) }
	fmt.Printf("jitsud connect: %d boards, policy %s; 3 operator sessions on board 0 (wire protocol v%d, scopes %s/%s/%s)\n\n",
		boards, pol.Name(), admin.Version(), admin.Scope(), ops.Scope(), viewer.Scope())
	stopStats := streamStats(viewer, statsEvery, c.Eng().Now)

	zone := c.Cfg.Board.Zone
	names := make([]string, services)
	for i := 0; i < services; i++ {
		names[i] = serviceNames[i] + "." + zone
		resp := admin.Register(api.RegisterRequest{Config: core.ServiceConfig{
			Name:  names[i],
			IP:    netstack.IPv4(10, 0, 0, byte(20+i)),
			Port:  80,
			Image: unikernel.UnikernelImage(serviceNames[i], nil),
		}})
		if resp.Err != nil {
			fmt.Fprintf(os.Stderr, "jitsud: register: %v\n", resp.Err)
			os.Exit(1)
		}
		fmt.Printf("%-12v admin    -> register %-22s ok\n", now(), names[i])
	}
	board0 := -1
	for i := 0; i < services; i++ {
		i := i
		resp := admin.Activate(api.ActivateRequest{Name: names[i], OnReady: func(err error) {
			if err != nil {
				fmt.Printf("%-12v admin    <- ready    %-22s ERR %v\n", now(), names[i], err)
				return
			}
			fmt.Printf("%-12v admin    <- ready    %-22s (event frame from board 0)\n", now(), names[i])
		}})
		if resp.Err != nil {
			fmt.Fprintf(os.Stderr, "jitsud: activate: %v\n", resp.Err)
			os.Exit(1)
		}
		if i == 0 {
			board0 = resp.Board
		}
		fmt.Printf("%-12v admin    -> activate %-22s placed on board %d\n", now(), names[i], resp.Board)
	}
	c.Eng().RunFor(5 * time.Second)

	stats := viewer.Stats(api.StatsRequest{})
	launches := uint64(0)
	for _, s := range stats.Services {
		launches += s.Launches
	}
	fmt.Printf("%-12v viewer   -> stats    %d services, %d launches, %d registries\n",
		now(), len(stats.Services), launches, len(stats.Registries))

	// The viewer oversteps its read-only scope: the verb is refused
	// with CodeUnauthorized, the session itself stays up.
	if mig := viewer.Migrate(api.MigrateRequest{Name: names[0]}); mig.Err != nil {
		fmt.Printf("%-12v viewer   -> migrate  %-22s refused: %s (%s) — session stays up\n",
			now(), names[0], mig.Err.Code, mig.Err.Detail)
	}

	if dem := ops.Demote(api.DemoteRequest{Name: names[0]}); dem.Err == nil {
		fmt.Printf("%-12v operator -> demote   %-22s %d replica(s) checkpointing to disk\n", now(), names[0], dem.Demoted)
	}
	c.Eng().RunFor(2 * time.Second)
	pro := ops.Promote(api.PromoteRequest{Name: names[0], OnReady: func(err error) {
		if err == nil {
			fmt.Printf("%-12v operator <- ready    %-22s paged back in from disk\n", now(), names[0])
		}
	}})
	if pro.Err == nil {
		fmt.Printf("%-12v operator -> promote  %-22s restoring on board %d\n", now(), names[0], pro.Board)
	}
	c.Eng().RunFor(5 * time.Second)

	mig := admin.Migrate(api.MigrateRequest{Name: names[0], From: api.OnBoard(board0), OnDone: func(ok bool) {
		fmt.Printf("%-12v admin    <- done     %-22s migration ok=%v (%d chunks paced over the mgmt link)\n",
			now(), names[0], ok, c.Chunks)
	}})
	if mig.Err != nil {
		fmt.Fprintf(os.Stderr, "jitsud: migrate: %v\n", mig.Err)
		os.Exit(1)
	}
	fmt.Printf("%-12v admin    -> migrate  %-22s off board %d\n", now(), names[0], board0)
	c.Eng().RunFor(20 * time.Second)

	if stop := ops.Stop(api.StopRequest{Name: names[0]}); stop.Err == nil {
		fmt.Printf("%-12v operator -> stop     %-22s %d replica(s) stopped\n", now(), names[0], stop.Stopped)
	}
	stopStats()
	for _, op := range sessions {
		op.cl.Close()
	}
	c.Eng().RunFor(time.Second)

	rxFrames, rxEvents := uint64(0), uint64(0)
	for _, op := range sessions {
		rxFrames += op.cl.Frames
		rxEvents += op.cl.Events
	}
	fmt.Printf("\nwire sessions: clients rx %d frames (%d events), server rx %d frames, %d conns, %d unauthorized, %d protocol errors\n",
		rxFrames, rxEvents, srv.Frames, srv.Conns, srv.Unauthorized, srv.ProtoErrs)
	for _, op := range sessions {
		fmt.Printf("%-8s console capture fingerprint: %016x — same seed, same bytes, same instants\n",
			op.role, op.tap.Fingerprint())
	}
}

// runFederation is the cluster-of-clusters mode: the same request
// trace resolved at the summarized root directory, which delegates each
// query to the owning cluster's board-0 directory.
func runFederation(clusters, boardsPer, services, requests int, seed int64, policyName string, minWarm int, synjitsu bool, wanProf *netsim.WANProfile, traceOut string) {
	pol := cluster.PolicyByName(policyName)
	if pol == nil {
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", policyName)
		os.Exit(2)
	}
	tracer := newTracer(traceOut)
	fopts := []cluster.FedOption{
		cluster.WithClusters(clusters),
		cluster.WithMemberOptions(
			cluster.WithBoards(boardsPer),
			cluster.WithSeed(seed),
			cluster.WithBoardOptions(core.WithSynjitsu(synjitsu)),
			cluster.WithPolicy(pol),
		),
		cluster.WithSummaryEvery(500 * time.Millisecond),
		cluster.WithFedTracer(tracer),
	}
	if wanProf != nil {
		// WAN-shaped federation links: the delegation retransmit budget
		// must clear the path RTT, and 1 MiB transfer chunks keep the
		// delegation replies from queueing behind whole checkpoints.
		delegRTO := 100 * time.Millisecond
		if d := 3 * wanProf.RTT; d > delegRTO {
			delegRTO = d
		}
		fopts = append(fopts,
			cluster.WithWAN(*wanProf),
			cluster.WithDelegateRetry(delegRTO, 3),
			cluster.WithTransferChunk(1),
		)
	}
	f := cluster.NewFederation(fopts...)
	if wanProf != nil {
		fmt.Printf("federation management links shaped to %s: rtt %v, loss %.2f%%, %.0f Mb/s\n",
			wanProf.Name, wanProf.RTT, wanProf.Loss*100, wanProf.BitsPerSec/1e6)
	}
	zone := f.Cfg.Cluster.Board.Zone
	var sopts []cluster.ServiceOption
	if minWarm > 0 {
		sopts = append(sopts, cluster.WithMinWarm(minWarm))
	}
	for i := 0; i < services; i++ {
		n := serviceNames[i]
		m, e := f.RegisterService(core.ServiceConfig{
			Name:  n + "." + zone,
			IP:    netstack.IPv4(10, 0, 0, byte(20+i)),
			Port:  80,
			Image: unikernel.UnikernelImage(n, unikernel.NewStaticSiteApp(n)),
		}, sopts...)
		if e == nil {
			fmt.Fprintf(os.Stderr, "jitsud: could not home %s\n", n)
			os.Exit(1)
		}
		fmt.Printf("  %s -> cluster %d (least-loaded home)\n", e.Name, m.ID)
	}
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))

	fmt.Printf("\njitsud federation: %d clusters x %d boards, policy %s, synjitsu=%v, %d services, min-warm %d\n\n",
		clusters, boardsPer, pol.Name(), synjitsu, services, minWarm)
	fmt.Printf("%-12s %-22s %-8s %-9s %-12s %s\n", "time", "request", "status", "c/b", "latency", "note")

	lat := &metrics.Series{Name: "request latency"}
	var issue func(i int)
	issue = func(i int) {
		if i >= requests {
			f.Stop()
			return
		}
		name := serviceNames[i%services] + "." + zone
		fc.Fetch(name, "/", 30*time.Second,
			func(cl, board int, resp *netstack.HTTPResponse, d sim.Duration, err error) {
				status, note := "ERR", ""
				switch {
				case err != nil:
					note = err.Error()
				default:
					status = fmt.Sprint(resp.Status)
					lat.Add(d)
				}
				fmt.Printf("%-12v %-22s %-8s %2d/%-6d %-12v %s\n",
					f.Eng().Now().Round(time.Millisecond), name, status, cl, board, d.Round(100*time.Microsecond), note)
				f.Eng().After(2*time.Second, func() { issue(i + 1) })
			})
	}
	// The registrations' summary pushes ride the management link; start
	// the trace once the root has heard about every service.
	f.Eng().After(50*time.Millisecond, func() { issue(0) })
	f.RunAll()
	dumpTrace(traceOut, tracer)

	fmt.Printf("\n%s\n", lat.Summary())
	root := f.Root()
	fmt.Printf("root directory: %d summary rows, %d lookups, %d delegations (%d cache hits, %d negative hits), %d scans\n",
		root.StateSize, root.Lookups, root.Delegations, root.DelegHits, root.NegHits, root.Scans)
	fmt.Printf("inter-cluster: %d spills, %d sheds, %d cross-cluster migrations, %d aborts\n",
		f.Spills, f.Sheds, f.CrossMigrations, f.CrossAborts)
	for _, m := range f.Members() {
		state := "live"
		if m.Left {
			state = "left"
		}
		fmt.Printf("cluster %d [%s]: %d services, %d warm hits, %d placed, %d refused\n",
			m.ID, state, len(m.Cluster.Directory().Entries()), m.Cluster.WarmHits, m.Cluster.Placed, m.Cluster.ServFails)
	}
}
