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
	"errors"
	"flag"
	"fmt"
	"io"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// daemon is one jitsud run: where it prints and what its flags said.
type daemon struct {
	out, errw io.Writer

	services, requests, boards, clusters, minWarm int
	seed                                          int64
	idle, joinAt, leaveAt, statsEvery             time.Duration
	idleSet, noSyn, disk                          bool
	policy, traceOut                              string
	hostile                                       hostileFlags
	wan                                           *netsim.WANProfile
}

// usageError is a flag the run cannot honour: exit code 2, where any
// other failure is 1.
type usageError string

func (e usageError) Error() string { return string(e) }

func usagef(format string, args ...any) error { return usageError(fmt.Sprintf(format, args...)) }

// run is the whole command: parse args, run the mode they select with
// the timeline on stdout, and return the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	d := &daemon{out: stdout, errw: stderr}
	fs := flag.NewFlagSet("jitsud", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&d.services, "services", 4, "number of registered services")
	fs.IntVar(&d.requests, "requests", 24, "requests in the trace")
	fs.DurationVar(&d.idle, "idle", 30*time.Second, "service idle timeout (0 = never stop)")
	fs.BoolVar(&d.noSyn, "no-synjitsu", false, "disable the connection proxy")
	fs.Int64Var(&d.seed, "seed", 1, "simulation seed")
	fs.IntVar(&d.boards, "boards", 1, "boards in the deployment (>1 runs the cluster control plane)")
	fs.StringVar(&d.policy, "policy", "least-loaded", "placement policy: first-fit|round-robin|least-loaded|power-aware")
	fs.IntVar(&d.minWarm, "min-warm", 0, "warm-pool floor per service (cluster mode)")
	fs.BoolVar(&d.disk, "disk", false, "enable the per-board disk checkpoint tier: idle services demote to disk and page back in on demand")
	churn := fs.Bool("churn", false, "cluster mode: run a default join/leave schedule under active gossip probing")
	fs.DurationVar(&d.joinAt, "join", 0, "cluster mode: a new board joins at this virtual time (0 = never)")
	fs.DurationVar(&d.leaveAt, "leave", 0, "cluster mode: the highest board leaves gracefully at this virtual time (0 = never)")
	fs.IntVar(&d.clusters, "clusters", 1, "clusters in the deployment (>1 runs the federation tier over -boards boards each)")
	fs.Float64Var(&d.hostile.loss, "loss", 0, "cluster mode: random loss rate (0..1) on the client's edge uplink")
	fs.DurationVar(&d.hostile.jitter, "jitter", 0, "cluster mode: latency jitter on the client's edge uplink")
	fs.StringVar(&d.hostile.partition, "partition", "", "cluster mode: cut the client's edge link at T (e.g. 20s), healing at T2 when given as T,T2 (e.g. 20s,30s)")
	fs.BoolVar(&d.hostile.noRetry, "no-dns-retry", false, "disable the client's DNS retry/backoff — the single-datagram ablation")
	fs.StringVar(&d.traceOut, "trace", "", "write the run's flight recorder to this file (Chrome trace-event JSON)")
	fs.DurationVar(&d.statsEvery, "stats-every", 0, "stream a stats snapshot line every this much virtual time (0 = off)")
	connect := fs.Bool("connect", false, "cluster mode: drive the deployment as a remote operator — a wire client dialled into board 0's management endpoint issues every control-plane verb as versioned frames over the simulated network")
	wan := fs.String("wan", "", "shape management links to a WAN preset (wan20ms|wan50ms|wan100ms): federation links in -clusters mode, the operator console link in -connect mode")
	profiles := obs.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fs.Visit(func(f *flag.Flag) { d.idleSet = d.idleSet || f.Name == "idle" })

	stopProfiles, err := profiles.Start()
	if err == nil {
		err = d.runMode(*churn, *connect, *wan)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	stopProfiles() // a run that fails writes no profile
	return 0
}

// runMode holds the flags to each other and runs the mode they select.
func (d *daemon) runMode(churn, connect bool, wan string) error {
	if wan != "" {
		p, ok := netsim.WANByName(wan)
		if !ok {
			msg := fmt.Sprintf("jitsud: unknown -wan profile %q; presets:", wan)
			for _, q := range netsim.WANProfiles() {
				msg += " " + q.Name
			}
			return usageError(msg)
		}
		d.wan = &p
	}
	if d.hostile.active() && (d.boards < 2 || d.clusters > 1) {
		return usagef("jitsud: -loss/-jitter/-partition/-no-dns-retry need cluster mode (-boards > 1, -clusters 1)")
	}
	if _, _, err := d.hostile.parsePartition(); err != nil {
		return usagef("jitsud: bad -partition: %v", err)
	}
	d.services = max(1, min(d.services, len(serviceNames)))
	if churn {
		// A default schedule sized to the trace: ~2s per request.
		traceSpan := 2 * time.Second * time.Duration(d.requests)
		if d.leaveAt == 0 {
			d.leaveAt = traceSpan / 3
		}
		if d.joinAt == 0 {
			d.joinAt = traceSpan / 2
		}
	}
	churning := churn || d.joinAt > 0 || d.leaveAt > 0
	switch {
	case connect:
		if d.boards < 2 || d.clusters > 1 {
			return usagef("jitsud: -connect needs cluster mode (-boards > 1, -clusters 1)")
		}
		if churning || d.hostile.active() {
			return usagef("jitsud: -connect runs a scripted operator session; -churn/-join/-leave and the edge-impairment flags do not apply")
		}
		return d.runConnect()
	case d.wan != nil && d.clusters < 2:
		return usagef("jitsud: -wan shapes management links in federation mode (-clusters > 1) or -connect mode")
	case d.clusters > 1:
		if churning {
			return usagef("jitsud: -churn/-join/-leave apply to cluster mode, not federation mode")
		}
		if d.idleSet {
			fmt.Fprintln(d.errw, "jitsud: -idle is ignored in federation mode (the warm-pool managers own replica lifecycle)")
		}
		if d.statsEvery > 0 {
			fmt.Fprintln(d.errw, "jitsud: -stats-every applies to board/cluster mode, not federation mode")
		}
		return d.runFederation()
	case d.boards > 1:
		if d.idleSet {
			fmt.Fprintln(d.errw, "jitsud: -idle is ignored in cluster mode (the warm-pool manager owns replica lifecycle)")
		}
		return d.runCluster()
	case churning:
		return usagef("jitsud: -churn/-join/-leave need cluster mode (-boards > 1)")
	}
	return d.runBoard()
}

// site is the i-th per-person web service — the one registration every
// mode makes, whichever control plane it hands it to.
func site(i int, zone string) core.ServiceConfig {
	n := serviceNames[i]
	return core.ServiceConfig{
		Name:  n + "." + zone,
		IP:    netstack.IPv4(10, 0, 0, byte(20+i)),
		Port:  80,
		Image: unikernel.UnikernelImage(n, unikernel.NewStaticSiteApp(n)),
	}
}

// policyByName resolves -policy for the modes that place services.
func (d *daemon) policyByName() (cluster.Policy, error) {
	pol := cluster.PolicyByName(d.policy)
	if pol == nil {
		return nil, usagef("unknown policy %q", d.policy)
	}
	return pol, nil
}

// runBoard is the single-board mode: a day in the life of one Jitsu host.
func (d *daemon) runBoard() error {
	tracer := d.newTracer()
	opts := []core.Option{core.WithSeed(d.seed), core.WithSynjitsu(!d.noSyn), core.WithTracer(tracer, 0)}
	if d.disk {
		opts = append(opts, core.WithDisk(blockdev.DefaultConfig()))
	}
	b := core.New(opts...)
	ctl := api.ForBoard(b)
	stopStats, err := d.streamStats(ctl, b.Eng.Now)
	if err != nil {
		return err
	}

	for i := 0; i < d.services; i++ {
		cfg := site(i, b.Cfg.Zone)
		cfg.IdleTimeout = d.idle
		if resp := ctl.Register(api.RegisterRequest{Config: cfg}); resp.Err != nil {
			return fmt.Errorf("jitsud: %v", resp.Err)
		}
	}
	client := b.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))

	fmt.Fprintf(d.out, "jitsud: %s, synjitsu=%v, %d services, idle timeout %v\n\n",
		b.Hyp, !d.noSyn, d.services, d.idle)

	cold, warm, diskRestores := 0, 0, 0
	loop := d.newLoop(b.Eng, b.Cfg.Zone, "", stopStats)
	loop.fetch = func(i int, name string) {
		svc, _ := b.Jitsu.Service(name)
		prior := svc.State
		if d.disk && prior == core.StateColdDisk && i%8 == 7 {
			// Page the service in via the explicit Promote verb before
			// fetching: the activation then joins the in-flight disk
			// restore instead of starting its own.
			if resp := ctl.Promote(api.PromoteRequest{Name: name}); resp.Err == nil {
				fmt.Fprintf(d.out, "%-12v %-22s %-8s %-12s %s\n",
					b.Eng.Now().Round(time.Millisecond), name, "-", "-", "promote: paging in from disk")
			}
		}
		b.FetchViaDNS(client, name, "/", 30*time.Second,
			func(resp *netstack.HTTPResponse, took sim.Duration, err error) {
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
				loop.row(name, resp, took, err, "", note)
				// Think time between requests: sometimes short (stays
				// warm), sometimes beyond the idle timeout.
				gap := 2 * time.Second
				if i%4 == 3 && d.idle > 0 {
					gap = d.idle + 5*time.Second
					if d.disk {
						// Park the just-served service on disk via the
						// explicit Demote verb instead of letting the
						// idle reaper evict it: the next visit pages it
						// back in at disk-restore cost, not a full boot.
						if resp := ctl.Demote(api.DemoteRequest{Name: name}); resp.Err == nil {
							fmt.Fprintf(d.out, "%-12v %-22s %-8s %-12s %s\n",
								b.Eng.Now().Round(time.Millisecond), name, "-", "-", "demote: checkpointing to disk")
						}
					}
				}
				loop.next(i, gap)
			})
	}
	loop.issue(0)
	b.Eng.Run()
	if err := d.dumpTrace(tracer); err != nil {
		return err
	}

	loop.summary()
	fmt.Fprintf(d.out, "cold starts: %d, warm hits: %d, disk restores: %d\n", cold, warm, diskRestores)
	fmt.Fprintf(d.out, "domains now: %d (incl. dom0), free memory: %d MiB\n", b.Hyp.Domains(), b.Hyp.FreeMemMiB())
	if b.Syn != nil {
		fmt.Fprintf(d.out, "synjitsu: %d connections proxied, %d handed off, %d SYN-triggered launches\n",
			b.Syn.Proxied, b.Syn.HandedOff, b.Syn.SYNTriggeredLaunches)
	}
	stats := ctl.Stats(api.StatsRequest{})
	reaps := uint64(0)
	for _, svc := range stats.Services {
		reaps += svc.Reaps
	}
	fmt.Fprintf(d.out, "idle reaps: %d — VMs run only while traffic needs them\n", reaps)
	fmt.Fprintf(d.out, "trigger firings:")
	for _, t := range stats.Triggers {
		fmt.Fprintf(d.out, " %s=%d", t.Name, t.Fired)
	}
	fmt.Fprintln(d.out)
	return nil
}

// closedLoop is the request trace the board, cluster and federation
// modes run: d.requests fetches of the registered services in turn, one
// at a time, each issued once the last is answered and its think time
// has passed. A mode's fetch issues request i for name; its answer goes
// to row, then next. finish runs once the trace is over.
type closedLoop struct {
	d      *daemon
	eng    *sim.Engine
	zone   string
	fetch  func(i int, name string)
	finish func()
	lat    metrics.Series
}

// newLoop prints the trace's table header — col is the mode's placement
// column title, padded to its width, or "" — and returns the loop.
func (d *daemon) newLoop(eng *sim.Engine, zone, col string, finish func()) *closedLoop {
	fmt.Fprintf(d.out, "%-12s %-22s %-8s %s%-12s %s\n", "time", "request", "status", col, "latency", "note")
	return &closedLoop{d: d, eng: eng, zone: zone, finish: finish, lat: metrics.Series{Name: "request latency"}}
}

// issue sends request i, or ends the trace after the last.
func (l *closedLoop) issue(i int) {
	if i >= l.d.requests {
		l.finish()
		return
	}
	l.fetch(i, serviceNames[i%l.d.services]+"."+l.zone)
}

// row prints one answered request, where being its placement cell in
// the column's width, and keeps a success's latency for the summary.
func (l *closedLoop) row(name string, resp *netstack.HTTPResponse, took sim.Duration, err error, where, note string) {
	status := "ERR"
	if err == nil {
		status = fmt.Sprint(resp.Status)
		l.lat.Add(took)
	}
	fmt.Fprintf(l.d.out, "%-12v %-22s %-8s %s%-12v %s\n",
		l.eng.Now().Round(time.Millisecond), name, status, where, took.Round(100*time.Microsecond), note)
}

// next issues request i+1 after gap.
func (l *closedLoop) next(i int, gap sim.Duration) { l.eng.After(gap, func() { l.issue(i + 1) }) }

// summary prints the latency line every trace's report opens with.
func (l *closedLoop) summary() { fmt.Fprintf(l.d.out, "\n%s\n", l.lat.Summary()) }

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
func (h hostileFlags) apply(out io.Writer, eng *sim.Engine, link *netsim.Link, seed int64) {
	if h.loss > 0 || h.jitter > 0 {
		link.ImpairAtoB(netsim.Impairment{Loss: h.loss, Jitter: h.jitter}, seed)
		fmt.Fprintf(out, "%-12v ** edge uplink impaired: loss=%.0f%% jitter=%v\n",
			eng.Now(), h.loss*100, h.jitter)
	}
	cut, heal, _ := h.parsePartition()
	if cut > 0 {
		eng.At(cut, func() {
			link.Partition()
			fmt.Fprintf(out, "%-12v ** edge link partitioned\n", eng.Now().Round(time.Millisecond))
		})
	}
	if heal > 0 {
		eng.At(heal, func() {
			link.Heal()
			fmt.Fprintf(out, "%-12v ** edge link healed\n", eng.Now().Round(time.Millisecond))
		})
	}
}

// newTracer builds the flight recorder when -trace is set (nil — which
// every tracing call tolerates — otherwise).
func (d *daemon) newTracer() *obs.Tracer {
	if d.traceOut == "" {
		return nil
	}
	return obs.NewTracer(1 << 16)
}

// dumpTrace writes the recorder as Chrome trace-event JSON (no-op when
// tracing is off).
func (d *daemon) dumpTrace(tr *obs.Tracer) error {
	if tr == nil {
		return nil
	}
	f, err := os.Create(d.traceOut)
	if err != nil {
		return fmt.Errorf("jitsud: %v", err)
	}
	if err := obs.WriteChromeTrace(f, tr); err == nil {
		err = f.Close()
	}
	if err != nil {
		return fmt.Errorf("jitsud: write trace: %v", err)
	}
	fmt.Fprintf(d.out, "\ntrace: %s (%d events, %d dropped)\n", d.traceOut, tr.Len(), tr.Dropped())
	return nil
}

// streamStats starts the -stats-every printer over the control plane's
// WatchStats verb; the returned stop cancels the stream so the event
// queue can drain once the trace completes.
func (d *daemon) streamStats(ctl api.ControlPlane, now func() sim.Duration) (stop func(), err error) {
	if d.statsEvery <= 0 {
		return func() {}, nil
	}
	resp := ctl.WatchStats(api.WatchStatsRequest{Every: d.statsEvery, OnStats: func(s api.StatsResponse) bool {
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
		fmt.Fprintf(d.out, "%-12v ** stats: launches=%d cold=%d dns-queries=%d dns-cache-hits=%d\n",
			now().Round(time.Millisecond), launches, cold, queries, hits)
		return true
	}})
	if resp.Err != nil {
		return nil, fmt.Errorf("jitsud: %v", resp.Err)
	}
	return resp.Stop, nil
}

// runCluster is the multi-board mode: the same request trace, but
// placed by the control plane instead of answered by one board.
func (d *daemon) runCluster() error {
	pol, err := d.policyByName()
	if err != nil {
		return err
	}
	tracer := d.newTracer()
	boardOpts := []core.Option{core.WithSynjitsu(!d.noSyn)}
	if d.disk {
		// With a disk tier, the pool manager and preemptor demote cold
		// replicas to disk instead of destroying them.
		boardOpts = append(boardOpts, core.WithDisk(blockdev.DefaultConfig()))
	}
	copts := []cluster.Option{
		cluster.WithBoards(d.boards),
		cluster.WithSeed(d.seed),
		cluster.WithBoardOptions(boardOpts...),
		cluster.WithPolicy(pol),
		cluster.WithTracer(tracer, 0),
	}
	if d.joinAt > 0 || d.leaveAt > 0 {
		// Membership churn ahead: run the gossip failure detector.
		copts = append(copts, cluster.WithProbing(time.Second, 0, 0))
	}
	c := cluster.NewCluster(copts...)
	traceDone := false
	if d.joinAt > 0 {
		c.Eng().At(d.joinAt, func() {
			if traceDone {
				// The run has quiesced (StopMembership already ran); a
				// new probing agent would keep the event queue alive
				// forever.
				fmt.Fprintf(d.out, "%-12v ** join skipped: trace already complete\n", c.Eng().Now().Round(time.Millisecond))
				return
			}
			m := c.AddBoard()
			fmt.Fprintf(d.out, "%-12v ** board %d joining (gossip join -> directory)\n", c.Eng().Now().Round(time.Millisecond), m.ID)
		})
	}
	if d.leaveAt > 0 {
		c.Eng().At(d.leaveAt, func() {
			// Highest-numbered board still taking placements (a -join
			// that fired earlier may have outnumbered the initial set).
			id := -1
			for _, m := range c.Members() {
				if m.ID != 0 && m.Placeable() {
					id = m.ID
				}
			}
			if id < 0 {
				fmt.Fprintf(d.out, "%-12v ** no board can leave\n", c.Eng().Now().Round(time.Millisecond))
				return
			}
			fmt.Fprintf(d.out, "%-12v ** board %d leaving gracefully (migrating warm replicas)\n", c.Eng().Now().Round(time.Millisecond), id)
			if err := c.Leave(id, func() {
				fmt.Fprintf(d.out, "%-12v ** board %d left (%d migrations so far)\n", c.Eng().Now().Round(time.Millisecond), id, c.Migrations)
			}); err != nil {
				fmt.Fprintf(d.out, "%-12v ** board %d cannot leave: %v\n", c.Eng().Now().Round(time.Millisecond), id, err)
			}
		})
	}

	ctl := c.API()
	stopStats, err := d.streamStats(ctl, c.Eng().Now)
	if err != nil {
		return err
	}
	zone := c.Cfg.Board.Zone
	for i := 0; i < d.services; i++ {
		if resp := ctl.Register(api.RegisterRequest{MinWarm: d.minWarm, Config: site(i, zone)}); resp.Err != nil {
			return fmt.Errorf("jitsud: %v", resp.Err)
		}
	}
	cl := c.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	if d.hostile.active() && !d.hostile.noRetry {
		cl.Retry = dns.DefaultRetry()
	}

	fmt.Fprintf(d.out, "jitsud cluster: %d boards, policy %s, synjitsu=%v, %d services, min-warm %d\n\n",
		d.boards, pol.Name(), !d.noSyn, d.services, d.minWarm)
	loop := d.newLoop(c.Eng(), zone, fmt.Sprintf("%-7s ", "board"), func() {
		// Quiesce the gossip agents so the event queue can drain.
		traceDone = true
		stopStats()
		c.StopMembership()
	})
	d.hostile.apply(d.out, c.Eng(), cl.Host(0).NIC.Link(), d.seed)
	loop.fetch = func(i int, name string) {
		warmBefore := c.WarmHits
		cl.Fetch(name, "/", 30*time.Second,
			func(board int, resp *netstack.HTTPResponse, took sim.Duration, err error) {
				note := "PLACED"
				switch {
				case err != nil:
					note = err.Error()
				case c.WarmHits > warmBefore:
					note = "warm"
				}
				loop.row(name, resp, took, err, fmt.Sprintf("%-7d ", board), note)
				loop.next(i, 2*time.Second)
			})
	}
	loop.issue(0)
	c.RunAll()
	if err := d.dumpTrace(tracer); err != nil {
		return err
	}

	loop.summary()
	fmt.Fprintf(d.out, "placed: %d, warm hits: %d, refused: %d, preempts: %d, prewarms: %d, reclaims: %d, demotions: %d\n",
		c.Placed, c.WarmHits, c.ServFails, c.Preempts, c.Pools.Prewarms, c.Pools.Reclaims, c.Demotions)
	if d.hostile.active() {
		stats := cl.Host(0).NIC.Link().Stats
		fmt.Fprintf(d.out, "edge link: %d frames delivered, %d dropped; dns retries: %d\n",
			stats.Delivered, stats.Dropped, cl.DNSRetries)
	}
	if c.Joins+c.Leaves+c.Confirms > 0 {
		fmt.Fprintf(d.out, "membership: %d joined, %d left, %d confirmed dead; %d migrations, %d replicas lost\n",
			c.Joins, c.Leaves, c.Confirms, c.Migrations, c.Lost)
	}
	fmt.Fprintf(d.out, "\n%s", c.CounterTable())
	fmt.Fprintf(d.out, "trigger firings:")
	for _, t := range ctl.Stats(api.StatsRequest{}).Triggers {
		fmt.Fprintf(d.out, " %s=%d", t.Name, t.Fired)
	}
	fmt.Fprintln(d.out)
	for _, m := range c.Members() {
		fmt.Fprintf(d.out, "board %d [%s]: %s\n", m.ID, m.State, m.Board.Hyp)
	}
	return nil
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
func (d *daemon) runConnect() error {
	pol, err := d.policyByName()
	if err != nil {
		return err
	}
	c := cluster.NewCluster(
		cluster.WithBoards(d.boards),
		cluster.WithSeed(d.seed),
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
		return fmt.Errorf("jitsud: %v", err)
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
		if d.wan != nil {
			d.wan.Apply(console.NIC.Link(), d.seed+int64(i))
		}
		op.tap = netsim.NewCapture(c.Eng(), 1<<16)
		console.NIC.Link().Tap(op.tap)
		cl, err := wire.DialSession(c.Eng(), console, netstack.IPv4(10, 255, 0, 10),
			wire.DefaultPort, wire.SessionConfig{Token: op.token})
		if err != nil {
			return fmt.Errorf("jitsud: dial %s: %v", op.role, err)
		}
		op.cl = cl
	}
	admin, ops, viewer := sessions[0].cl, sessions[1].cl, sessions[2].cl
	if d.wan != nil {
		fmt.Fprintf(d.out, "console links shaped to %s: rtt %v, loss %.2f%%, %.0f Mb/s\n",
			d.wan.Name, d.wan.RTT, d.wan.Loss*100, d.wan.BitsPerSec/1e6)
	}
	now := func() time.Duration { return c.Eng().Now().Round(time.Millisecond) }
	fmt.Fprintf(d.out, "jitsud connect: %d boards, policy %s; 3 operator sessions on board 0 (wire protocol v%d, scopes %s/%s/%s)\n\n",
		d.boards, pol.Name(), wire.Version, admin.Scope(), ops.Scope(), viewer.Scope())
	stopStats, err := d.streamStats(viewer, c.Eng().Now)
	if err != nil {
		return err
	}

	zone := c.Cfg.Board.Zone
	names := make([]string, d.services)
	for i := 0; i < d.services; i++ {
		cfg := site(i, zone)
		cfg.Image.App = nil // apps do not cross the wire: the server's resolver re-attaches them
		names[i] = cfg.Name
		if resp := admin.Register(api.RegisterRequest{Config: cfg}); resp.Err != nil {
			return fmt.Errorf("jitsud: register: %v", resp.Err)
		}
		fmt.Fprintf(d.out, "%-12v admin    -> register %-22s ok\n", now(), names[i])
	}
	board0 := -1
	for i := 0; i < d.services; i++ {
		i := i
		resp := admin.Activate(api.ActivateRequest{Name: names[i], OnReady: func(err error) {
			if err != nil {
				fmt.Fprintf(d.out, "%-12v admin    <- ready    %-22s ERR %v\n", now(), names[i], err)
				return
			}
			fmt.Fprintf(d.out, "%-12v admin    <- ready    %-22s (event frame from board 0)\n", now(), names[i])
		}})
		if resp.Err != nil {
			return fmt.Errorf("jitsud: activate: %v", resp.Err)
		}
		if i == 0 {
			board0 = resp.Board
		}
		fmt.Fprintf(d.out, "%-12v admin    -> activate %-22s placed on board %d\n", now(), names[i], resp.Board)
	}
	c.Eng().RunFor(5 * time.Second)

	stats := viewer.Stats(api.StatsRequest{})
	launches := uint64(0)
	for _, s := range stats.Services {
		launches += s.Launches
	}
	fmt.Fprintf(d.out, "%-12v viewer   -> stats    %d services, %d launches, %d registries\n",
		now(), len(stats.Services), launches, len(stats.Registries))

	// The viewer oversteps its read-only scope: the verb is refused
	// with CodeUnauthorized, the session itself stays up.
	if mig := viewer.Migrate(api.MigrateRequest{Name: names[0]}); mig.Err != nil {
		fmt.Fprintf(d.out, "%-12v viewer   -> migrate  %-22s refused: %s (%s) — session stays up\n",
			now(), names[0], mig.Err.Code, mig.Err.Detail)
	}

	if dem := ops.Demote(api.DemoteRequest{Name: names[0]}); dem.Err == nil {
		fmt.Fprintf(d.out, "%-12v operator -> demote   %-22s %d replica(s) checkpointing to disk\n", now(), names[0], dem.Demoted)
	}
	c.Eng().RunFor(2 * time.Second)
	pro := ops.Promote(api.PromoteRequest{Name: names[0], OnReady: func(err error) {
		if err == nil {
			fmt.Fprintf(d.out, "%-12v operator <- ready    %-22s paged back in from disk\n", now(), names[0])
		}
	}})
	if pro.Err == nil {
		fmt.Fprintf(d.out, "%-12v operator -> promote  %-22s restoring on board %d\n", now(), names[0], pro.Board)
	}
	c.Eng().RunFor(5 * time.Second)

	mig := admin.Migrate(api.MigrateRequest{Name: names[0], From: api.OnBoard(board0), OnDone: func(ok bool) {
		fmt.Fprintf(d.out, "%-12v admin    <- done     %-22s migration ok=%v (%d chunks paced over the mgmt link)\n",
			now(), names[0], ok, c.Chunks)
	}})
	if mig.Err != nil {
		return fmt.Errorf("jitsud: migrate: %v", mig.Err)
	}
	fmt.Fprintf(d.out, "%-12v admin    -> migrate  %-22s off board %d\n", now(), names[0], board0)
	c.Eng().RunFor(20 * time.Second)

	if stop := ops.Stop(api.StopRequest{Name: names[0]}); stop.Err == nil {
		fmt.Fprintf(d.out, "%-12v operator -> stop     %-22s %d replica(s) stopped\n", now(), names[0], stop.Stopped)
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
	fmt.Fprintf(d.out, "\nwire sessions: clients rx %d frames (%d events), server rx %d frames, %d conns, %d unauthorized, %d protocol errors\n",
		rxFrames, rxEvents, srv.Frames, srv.Conns, srv.Unauthorized, srv.ProtoErrs)
	for _, op := range sessions {
		fmt.Fprintf(d.out, "%-8s console capture fingerprint: %016x — same seed, same bytes, same instants\n",
			op.role, op.tap.Fingerprint())
	}
	return nil
}

// runFederation is the cluster-of-clusters mode: the same request
// trace resolved at the summarized root directory, which delegates each
// query to the owning cluster's board-0 directory.
func (d *daemon) runFederation() error {
	pol, err := d.policyByName()
	if err != nil {
		return err
	}
	tracer := d.newTracer()
	fopts := []cluster.FedOption{
		cluster.WithClusters(d.clusters),
		cluster.WithMemberOptions(
			cluster.WithBoards(d.boards),
			cluster.WithSeed(d.seed),
			cluster.WithBoardOptions(core.WithSynjitsu(!d.noSyn)),
			cluster.WithPolicy(pol),
		),
		cluster.WithSummaryEvery(500 * time.Millisecond),
		cluster.WithFedTracer(tracer),
	}
	if d.wan != nil {
		fopts = append(fopts, cluster.WithWAN(*d.wan))
	}
	f := cluster.NewFederation(fopts...)
	if d.wan != nil {
		fmt.Fprintf(d.out, "federation management links shaped to %s: rtt %v, loss %.2f%%, %.0f Mb/s\n",
			d.wan.Name, d.wan.RTT, d.wan.Loss*100, d.wan.BitsPerSec/1e6)
	}
	zone := f.Cfg.Cluster.Board.Zone
	var sopts []cluster.ServiceOption
	if d.minWarm > 0 {
		sopts = append(sopts, cluster.WithMinWarm(d.minWarm))
	}
	for i := 0; i < d.services; i++ {
		m, e := f.RegisterService(site(i, zone), sopts...)
		if e == nil {
			return fmt.Errorf("jitsud: could not home %s", serviceNames[i])
		}
		fmt.Fprintf(d.out, "  %s -> cluster %d (least-loaded home)\n", e.Name, m.ID)
	}
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))

	fmt.Fprintf(d.out, "\njitsud federation: %d clusters x %d boards, policy %s, synjitsu=%v, %d services, min-warm %d\n\n",
		d.clusters, d.boards, pol.Name(), !d.noSyn, d.services, d.minWarm)
	loop := d.newLoop(f.Eng(), zone, fmt.Sprintf("%-9s ", "c/b"), f.Stop)
	loop.fetch = func(i int, name string) {
		fc.Fetch(name, "/", 30*time.Second,
			func(cl, board int, resp *netstack.HTTPResponse, took sim.Duration, err error) {
				note := ""
				if err != nil {
					note = err.Error()
				}
				loop.row(name, resp, took, err, fmt.Sprintf("%2d/%-6d ", cl, board), note)
				loop.next(i, 2*time.Second)
			})
	}
	// The registrations' summary pushes ride the management link; start
	// the trace once the root has heard about every service.
	f.Eng().After(50*time.Millisecond, func() { loop.issue(0) })
	f.RunAll()
	if err := d.dumpTrace(tracer); err != nil {
		return err
	}

	loop.summary()
	root := f.Root()
	fmt.Fprintf(d.out, "root directory: %d summary rows, %d lookups, %d delegations (%d cache hits, %d negative hits), %d scans\n",
		root.StateSize, root.Lookups, root.Delegations, root.DelegHits, root.NegHits, root.Scans)
	fmt.Fprintf(d.out, "inter-cluster: %d spills, %d sheds, %d cross-cluster migrations, %d aborts\n",
		f.Spills, f.Sheds, f.CrossMigrations, f.CrossAborts)
	for _, m := range f.Members() {
		state := "live"
		if m.Left {
			state = "left"
		}
		fmt.Fprintf(d.out, "cluster %d [%s]: %d services, %d warm hits, %d placed, %d refused\n",
			m.ID, state, len(m.Cluster.Directory().Entries()), m.Cluster.WarmHits, m.Cluster.Placed, m.Cluster.ServFails)
	}
	return nil
}
