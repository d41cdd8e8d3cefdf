// Package cluster is the control plane above core.Board: a single
// cluster-wide directory and authoritative DNS that *places* unikernels
// across N boards instead of making clients walk the NS set on
// SERVFAIL (§3.3.2's "conventional failover"). One query is answered by
// the board the scheduler picks; warm pools keep hot services
// pre-booted so they skip the cold-start path entirely.
//
// Membership is dynamic: boards join and leave at runtime through a
// SWIM-style gossip layer (membership.go), and warm replicas *move*
// between boards by live migration (migrate.go) instead of being
// preempted and cold-booted.
//
// The directory tier reads its state where it lies: a lookup, a summary
// push or a gossip round walks the name-ordered directory and each
// entry's replica slots in place (directory.go says who may, and what
// the panic means) and fills buffers its agent keeps (membership.go).
package cluster

import (
	"cmp"
	"slices"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/power"
	"jitsu/internal/sim"
)

// The control loops' fixed constants.
const (
	// rateAlpha is the EWMA weight for arrival-rate estimation.
	rateAlpha = 0.1
	// preemptMargin gates rate-based preemption: a full cluster evicts
	// the coldest ready replica only for a service at least this many
	// times hotter; 2 resists flapping between similar services.
	preemptMargin = 2.0
	// bootEstimate is the expected cold-boot latency used to size pools.
	bootEstimate = 350 * time.Millisecond
	// answerGuard is how long a replica whose IP went out in a DNS answer
	// may still see that client connect: the preemptor spares a replica
	// answered (or booted) more recently, and a moved-out source drains
	// this long after its switchover before it stops.
	answerGuard = 10 * bootEstimate
)

// Config sizes the cluster and tunes its control loops. Options are its
// only writers.
type Config struct {
	// Board is every member board's configuration: boardOpts applied to
	// core.DefaultConfig (see board).
	Board     core.BoardConfig
	boardOpts []core.Option
	// boards is the number of core.Boards fronted by the directory at
	// construction; more may join (AddBoard) and boards may leave later.
	boards int
	// defaultPolicy places services that don't pick their own
	// (nil = LeastLoaded).
	defaultPolicy Policy
	// warmFactor scales rate×boot-time into a warm-pool target.
	warmFactor float64
	// maxWarmPerService caps any one service's pool (0 = one per board).
	maxWarmPerService int
	// minRate is the arrivals/sec below which a pool drains to MinWarm.
	minRate float64

	// probeEvery is the gossip failure-detector period. 0 (the default)
	// keeps the detector passive — joins and graceful leaves still
	// disseminate, but no periodic probing keeps the event queue alive,
	// so Engine.Run drains as before. Churn runs turn it on and drive
	// the engine with RunUntil.
	probeEvery sim.Duration
	// probeTimeout is how long a probe waits for its ack before the
	// target turns suspect.
	probeTimeout sim.Duration
	// suspectTimeout is how long a suspicion may stand unrefuted before
	// the member is confirmed dead.
	suspectTimeout sim.Duration
	// indirectProbes is the SWIM ping-req fan-out: when a direct probe
	// times out, this many other members are asked to probe the target
	// before it turns suspect. 0 disables indirection — a single lossy
	// link then produces false suspicions (and, unrefuted, false
	// confirms).
	indirectProbes int
	// migrateOnLeave moves warm replicas off a gracefully leaving board
	// (checkpoint + restore) instead of stopping them (the
	// preempt-and-reboot baseline the Churn experiment compares against).
	migrateOnLeave bool
	// migrateChunkMiB sizes the pre-copy chunks; each chunk is one
	// acknowledged datagram exchange on the management network
	// (default 8 MiB).
	migrateChunkMiB int
	// mgmtBitsPerSec is the management network's link rate, shared by
	// gossip and checkpoint copies (default 1 Gb/s).
	mgmtBitsPerSec float64
	// unpacedTransfers disables the per-uplink congestion controller:
	// checkpoint copies — between boards, and from a federation member's
	// agent to another cluster — blast every chunk immediately with the
	// fixed doubling retransmit floor, the pre-controller behaviour kept
	// as the Stampede experiment's ablation arm.
	unpacedTransfers bool

	// tracer, when set, is shared by every board and control loop of the
	// cluster: gossip, migration and scheduling events land in it next
	// to each board's activation spans. Nil disables tracing.
	tracer *obs.Tracer
	// traceTIDBase offsets the tracer lanes: board i renders on lane
	// traceTIDBase+i. A federation gives each member cluster its own
	// hundred-lane block.
	traceTIDBase int
}

// defaultConfig is a 4-board Cubieboard2 cluster with least-loaded
// placement, EWMA-sized warm pools, and live migration on graceful
// leave. The failure detector is passive until probeEvery is set.
func defaultConfig() Config {
	return Config{
		boards:          4,
		Board:           core.DefaultConfig(),
		warmFactor:      1.0,
		minRate:         0.02,
		probeTimeout:    200 * time.Millisecond,
		suspectTimeout:  2 * time.Second,
		indirectProbes:  2,
		migrateOnLeave:  true,
		mgmtBitsPerSec:  1e9,
		migrateChunkMiB: 8,
	}
}

// board adds options to the member boards' list and applies them to
// Board. The list is extended into a fresh array: a Config copied
// before this call (a federation's per-member copy) keeps its own.
func (cfg *Config) board(opts ...core.Option) {
	cfg.boardOpts = append(slices.Clip(cfg.boardOpts), opts...)
	for _, o := range opts {
		o(&cfg.Board)
	}
}

// Cluster fronts its boards with one directory, one scheduler and one
// warm-pool manager. Board 0 additionally hosts the cluster's
// authoritative DNS endpoint and the authoritative membership view; the
// other boards never see client queries, only placed traffic.
type Cluster struct {
	Cfg Config
	// Boards holds every board ever part of the cluster, indexed by its
	// stable id; departed boards stay in the slice (marked dead/left in
	// members) so ids, replica slots and client attachments never shift.
	Boards []*core.Board
	// Models holds each board's power model (for PowerAware).
	Models []*power.Board
	// Pools is the warm-pool manager.
	Pools *PoolManager

	eng     *sim.Engine
	dir     *Directory
	members []*Member
	// apis holds each board's typed control plane (api.ForBoard); the
	// management paths — migration above all — speak it instead of
	// reaching into the board's Jitsu directly.
	apis []api.ControlPlane
	// mgmt is the management network the gossip agents (and checkpoint
	// copies) ride on.
	mgmt    *netsim.Bridge
	clients []*Client
	// onDirChange (set by the federation agent) observes every service
	// registration and unregistration, so the cluster's summary row at
	// the federation root can follow the directory.
	onDirChange func()
	// movedTo records services this cluster handed to another cluster
	// (federation spill or skew shed): resolution redirects there.
	movedTo map[string]int
	// nextXferID numbers checkpoint transfers cluster-wide (xfer.go).
	nextXferID uint32
	// answer is the front door's per-query A record (trigger.go).
	answer dns.RR

	// WarmHits counts queries answered by an already-ready replica.
	WarmHits uint64
	// Placed counts queries that scheduled a boot (cold or in-flight).
	Placed uint64
	// ServFails counts queries refused cluster-wide (no board fits).
	ServFails uint64
	// Preempts counts cold replicas evicted to make room for hot ones.
	Preempts uint64
	// Migrations counts warm replicas moved live between boards.
	Migrations uint64
	// Lost counts live replicas destroyed by departures (not migrated).
	Lost uint64
	// Demotions counts reclaimed replicas — preemption victims and
	// warm-pool shrinks — parked on their board's disk tier instead of
	// evicted.
	Demotions uint64
	// Chunks counts checkpoint chunk datagrams sent (including
	// retransmits); ChunkRetx counts just the retransmits; XferAborts
	// counts transfers abandoned after a chunk exhausted its retries.
	Chunks     uint64
	ChunkRetx  uint64
	XferAborts uint64
	// Parks counts checkpoints rescued from a dead migration onto a
	// surviving board's disk tier instead of dying with the replica.
	Parks uint64
	// Joins counts boards the directory admitted after construction;
	// Leaves counts graceful departures; Confirms counts members the
	// failure detector confirmed dead.
	Joins    uint64
	Leaves   uint64
	Confirms uint64

	// Reg is the cluster-level metric registry: control-plane counters
	// and gossip accounting, mirrored at snapshot time. Per-board
	// metrics stay in each Board.Reg.
	Reg *obs.Registry
	// Probes/Suspects/Refutes count gossip failure-detector traffic:
	// pings sent, members turned suspect in the local view, and
	// self-refutations (a live member clearing its own suspicion).
	Probes   uint64
	Suspects uint64
	Refutes  uint64
	// PingReqs counts indirect probe requests fanned out after a direct
	// probe timeout; IndirectAcks counts suspicions averted because a
	// relay's probe got through when the direct path did not.
	PingReqs     uint64
	IndirectAcks uint64
}

// tracer returns the cluster's shared flight recorder (nil when off).
func (c *Cluster) tracer() *obs.Tracer { return c.Cfg.tracer }

// tidFor is the tracer lane for one board's events.
func (c *Cluster) tidFor(board int) int { return c.Cfg.traceTIDBase + board }

// buildOn wires the cluster: n boards on the given engine, the gossip
// membership substrate, the directory, and the DNS trigger on board 0
// that routes every cluster service through the scheduler. A federation
// passes one shared engine so its member clusters advance through one
// coherent virtual time.
func buildOn(eng *sim.Engine, cfg Config) *Cluster {
	if cfg.boards <= 0 {
		cfg.boards = 1
	}
	if cfg.defaultPolicy == nil {
		cfg.defaultPolicy = LeastLoaded{}
	}
	if cfg.maxWarmPerService <= 0 {
		cfg.maxWarmPerService = cfg.boards
	}
	cfg.board(core.WithDelayedDNS(false)) // answer synchronously, like stock Jitsu

	c := &Cluster{Cfg: cfg, dir: newDirectory(), movedTo: make(map[string]int)}
	c.eng = eng
	c.mgmt = netsim.NewBridge(c.eng, "mgmt", 10*time.Microsecond)
	for i := 0; i < cfg.boards; i++ {
		c.newMember()
	}
	// Construction-time members know each other without a join round.
	for _, m := range c.members {
		m.State = MemberAlive
		m.agent.bootstrap(c.members)
		m.agent.startProbing()
	}
	c.Pools = newPoolManager(c)
	c.frontDoor()

	c.Reg = obs.NewRegistry("cluster")
	c.Reg.CounterFunc("sched.warm_hits", func() uint64 { return c.WarmHits })
	c.Reg.CounterFunc("sched.placed", func() uint64 { return c.Placed })
	c.Reg.CounterFunc("sched.servfails", func() uint64 { return c.ServFails })
	c.Reg.CounterFunc("sched.preempts", func() uint64 { return c.Preempts })
	c.Reg.CounterFunc("sched.demotions", func() uint64 { return c.Demotions })
	c.Reg.CounterFunc("migrate.migrations", func() uint64 { return c.Migrations })
	c.Reg.CounterFunc("migrate.lost", func() uint64 { return c.Lost })
	c.Reg.CounterFunc("migrate.chunks", func() uint64 { return c.Chunks })
	c.Reg.CounterFunc("migrate.chunk_retx", func() uint64 { return c.ChunkRetx })
	c.Reg.CounterFunc("migrate.xfer_aborts", func() uint64 { return c.XferAborts })
	c.Reg.CounterFunc("migrate.parks", func() uint64 { return c.Parks })
	c.Reg.CounterFunc("gossip.joins", func() uint64 { return c.Joins })
	c.Reg.CounterFunc("gossip.leaves", func() uint64 { return c.Leaves })
	c.Reg.CounterFunc("gossip.confirms", func() uint64 { return c.Confirms })
	c.Reg.CounterFunc("gossip.probes", func() uint64 { return c.Probes })
	c.Reg.CounterFunc("gossip.suspects", func() uint64 { return c.Suspects })
	c.Reg.CounterFunc("gossip.refutes", func() uint64 { return c.Refutes })
	c.Reg.CounterFunc("gossip.pingreqs", func() uint64 { return c.PingReqs })
	c.Reg.CounterFunc("gossip.indirect_acks", func() uint64 { return c.IndirectAcks })
	c.Reg.GaugeFunc("members.alive", func() int64 {
		var n int64
		for _, m := range c.members {
			if m.State == MemberAlive {
				n++
			}
		}
		return n
	})
	return c
}

// newMember creates one board plus its gossip agent and registers both
// under the next stable id. State starts Joining; New flips the initial
// set to Alive directly, AddBoard waits for the join to reach board 0.
func (c *Cluster) newMember() *Member {
	id := len(c.Boards)
	b := core.NewOnEngine(c.eng, append(slices.Clip(c.Cfg.boardOpts),
		core.WithTracer(c.Cfg.tracer, c.tidFor(id)))...)
	model := power.Cubieboard2()
	m := &Member{ID: id, Board: b, Model: model, State: MemberJoining, baseDomains: b.Hyp.Domains()}
	c.Boards = append(c.Boards, b)
	c.apis = append(c.apis, api.ForBoard(b))
	c.Models = append(c.Models, model)
	c.members = append(c.members, m)
	m.agent = newAgent(c, m)
	return m
}

// AddBoard admits a new board at runtime: the board is built on the
// shared engine, every registered service gets a replica slot on it,
// existing clients attach to its network, and its gossip agent joins
// through board 0. The board becomes placeable when the directory's
// agent applies the join (a management-network round-trip later).
func (c *Cluster) AddBoard() *Member {
	m := c.newMember()
	for e := range c.dir.walk {
		c.addReplicaSlot(e, m)
	}
	for _, cl := range c.clients {
		cl.attach(m.ID)
	}
	m.agent.join()
	m.agent.startProbing()
	return m
}

// front returns the board hosting the cluster's DNS and directory.
func (c *Cluster) front() *core.Board { return c.Boards[0] }

// serviceOpts selects per-service placement behaviour at registration.
type serviceOpts struct {
	// policy overrides the cluster default for this service.
	policy Policy
	// minWarm keeps at least this many replicas booted at all times.
	minWarm int
}

// register wires one service into the directory. Each replica gets
// a board-specific IP (third octet = 100+board) so the client can tell
// which board a DNS answer points at. The per-board idle reaper is
// disabled — replica lifecycle belongs to the warm-pool manager.
func (c *Cluster) register(sc core.ServiceConfig, opts serviceOpts) *Entry {
	name := dns.CanonicalName(sc.Name)
	sc.Name = name
	sc.IdleTimeout = 0
	// Pin the effective checkpoint size in Base so migration planning and
	// replica registration agree on it.
	sc.StateMiB = sc.StateSizeMiB()
	e := &Entry{
		Name:    name,
		Base:    sc,
		Policy:  opts.policy,
		MinWarm: opts.minWarm,
	}
	if e.Policy == nil {
		e.Policy = c.Cfg.defaultPolicy
	}
	for _, m := range c.members {
		if m.State == MemberDead || m.State == MemberLeft {
			e.Replicas = append(e.Replicas, nil)
			continue
		}
		c.addReplicaSlot(e, m)
	}
	c.dir.put(e)
	delete(c.movedTo, name)   // a re-registration supersedes any old move
	c.Pools.reconcile(e, nil) // honour MinWarm immediately
	if c.onDirChange != nil {
		c.onDirChange()
	}
	return e
}

// Unregister removes a service from the cluster directory: every
// replica slot is retired from its board (running VMs destroyed, DNS
// epochs bumped). The federation transfer leg calls it on the source
// cluster once a service has moved. Reports whether the name was known.
func (c *Cluster) Unregister(name string) bool {
	name = dns.CanonicalName(name)
	e := c.dir.entries[name]
	if e == nil {
		return false
	}
	for _, p := range e.Replicas {
		if p.in(slotHeld) {
			c.Boards[p.Board].Jitsu.Deregister(p.Svc)
			p.to(slotGone, nil)
			delete(c.dir.byIP, p.Svc.Cfg.IP)
		}
	}
	c.dir.remove(name)
	c.front().DNS.BumpEpoch()
	if c.onDirChange != nil {
		c.onDirChange()
	}
	return true
}

// addReplicaSlot registers e's replica on member m's board.
func (c *Cluster) addReplicaSlot(e *Entry, m *Member) *Placement {
	rc := e.Base
	rc.IP = replicaIP(e.Base.IP, m.ID)
	p := &Placement{Board: m.ID, Svc: m.Board.Jitsu.Register(rc), state: slotOpen}
	for len(e.Replicas) <= m.ID {
		e.Replicas = append(e.Replicas, nil)
	}
	e.Replicas[m.ID] = p
	c.dir.byIP[rc.IP] = p
	return p
}

// replicaIP derives board i's replica address from the base service IP.
func replicaIP(base netstack.IP, board int) netstack.IP {
	ip := base
	ip[2] = byte(100 + board)
	return ip
}

// Directory exposes the cluster-wide directory (read-only use).
func (c *Cluster) Directory() *Directory { return c.dir }

// Eng returns the shared simulation engine.
func (c *Cluster) Eng() *sim.Engine { return c.eng }

// RunAll drains the shared engine. With active probing (probeEvery > 0)
// the queue never drains — use RunUntil and StopMembership instead.
func (c *Cluster) RunAll() { c.eng.Run() }

// RunUntil advances the shared engine to virtual time t.
func (c *Cluster) RunUntil(t sim.Duration) { c.eng.RunUntil(t) }

// schedule is the one placement path behind every client-driven
// activation — the DNS trigger, the control-plane Activate, and the
// federation's delegated resolutions: observe the arrival, place it,
// pin the chosen replica against reclaim, and let the pool manager
// chase the new rate estimate. via names the trigger frontend for the
// Activation machine's accounting; onReady (may be nil) rides the
// summon to the chosen board.
func (c *Cluster) schedule(e *Entry, via string, onReady func(error)) (p *Placement, warm bool) {
	c.observe(e)
	p, warm = c.place(e, via, onReady)
	if p == nil {
		e.Refused++
		c.ServFails++
		c.Pools.reconcileAll(nil)
		return nil, false
	}
	if warm {
		c.WarmHits++
	} else {
		c.Placed++
	}
	p.lastAnswered = c.eng.Now()
	// The replica just named is pinned: reclaim must not tear it down
	// before the client's connect lands.
	c.Pools.reconcileAll(p)
	return p, warm
}

// observe feeds one arrival into the service's EWMA rate estimate.
func (c *Cluster) observe(e *Entry) {
	now := c.eng.Now()
	if e.arrivals == 0 {
		// First contact: no inter-arrival gap to measure yet. Seed the
		// estimate at the reclaim threshold so the fresh boot stays in
		// the pool until the gap-decay proves the service really is
		// one-shot, instead of reclaiming it before a second visit.
		e.rate = c.Cfg.minRate
	} else if now > e.lastArrival {
		inst := 1 / (now - e.lastArrival).Seconds()
		e.rate = rateAlpha*inst + (1-rateAlpha)*e.rate
	}
	e.arrivals++
	e.lastArrival = now
	// WarmTarget is refreshed by the reconcile pass that follows every
	// placement decision.
}

// place picks the replica that answers this query:
//  1. a booted replica (round-robin among them — a warm hit),
//  2. else a replica already booting (the DNS answer rides the same
//     §3.3 race stock Jitsu does; Synjitsu absorbs the early SYNs),
//  3. else a disk-resident replica paged back in (a disk restore beats
//     any full boot),
//  4. else a cold placement on the board the policy picks,
//  5. else, if this service is markedly hotter than some booted
//     replica, preempt that replica and boot in its place,
//  6. else nil: the whole cluster is full — one SERVFAIL, no walking.
//
// onReady (nil on the DNS path, which answers without waiting) is
// delivered exactly once: immediately for a warm hit, at boot
// completion otherwise.
func (c *Cluster) place(e *Entry, via string, onReady func(error)) (p *Placement, warm bool) {
	if n := e.readyCount(); n > 0 {
		e.rr++
		p := e.readyAt(e.rr % n)
		// The warm hit never fires the board's machine, so the touch —
		// LRU recency plus the WarmMemory→Running promotion — is explicit.
		c.Boards[p.Board].Jitsu.Touch(p.Svc)
		if onReady != nil {
			onReady(nil)
		}
		return p, true
	}
	if p := e.launching(); p != nil {
		if onReady != nil && !c.Boards[p.Board].Jitsu.Summon(p.Svc,
			core.Summon{Via: via, OnReady: onReady}).Served() {
			onReady(core.ErrNoMemory)
		}
		return p, false
	}
	for i, dp := range e.Replicas {
		if !dp.in(slotHeld&^slotReserved) || dp.Svc.State != core.StateColdDisk ||
			!c.members[i].Placeable() || c.Boards[i].Jitsu.FreeMemMiB() < e.Base.Image.MemMiB {
			continue
		}
		if c.summon(dp, via, onReady, nil) {
			return dp, false
		}
	}
	idx := e.Policy.Pick(c.views(e, nil))
	if idx < 0 {
		if p := c.preempt(e, via, onReady); p != nil {
			return p, false
		}
		return nil, false
	}
	p = e.Replicas[idx]
	if !c.summon(p, via, onReady, nil) {
		return nil, false
	}
	return p, false
}

// preempt reclaims the coldest ready replica whose service is at least
// preemptMargin times colder than e, then summons e's replica on the
// freed board: its launch joins the victim's destroy. Victims are tried
// coldest first (ties in directory order) until Jitsu.Reclaim takes
// one. The DNS answer goes out immediately — the replica IP is under
// Synjitsu control, so the client's SYNs ride the same boot race a
// stock cold start does.
func (c *Cluster) preempt(e *Entry, via string, onReady func(error)) *Placement {
	now := c.eng.Now()
	need := e.effectiveRate(now)
	type victim struct {
		p    *Placement
		rate float64
	}
	var cands []victim
	for o := range c.dir.walk {
		if o == e {
			continue
		}
		or := o.effectiveRate(now)
		if or*preemptMargin >= need {
			continue
		}
		for _, p := range o.Replicas {
			// Only boards still taking placements host preemption boots,
			// and in-flight migrations must not lose their source.
			if !p.in(slotOpen|slotReserved) || !p.Svc.State.Booted() || !c.members[p.Board].Placeable() {
				continue
			}
			// Hysteresis: a replica must have amortised its boot cost
			// before it can be evicted, or near-equal services thrash.
			if p.Svc.Guest.Uptime() < answerGuard {
				continue
			}
			// Never evict a replica whose IP went out in a recent DNS
			// answer: that client's connection may still be in flight.
			if now-p.lastAnswered < answerGuard {
				continue
			}
			b := c.Boards[p.Board]
			if b.Jitsu.FreeMemMiB()+p.Svc.Cfg.Image.MemMiB < e.Base.Image.MemMiB {
				continue
			}
			cands = append(cands, victim{p, or})
		}
	}
	slices.SortStableFunc(cands, func(a, b victim) int { return cmp.Compare(a.rate, b.rate) })
	for _, v := range cands {
		rep := e.Replicas[v.p.Board]
		if rep == nil || rep.state == slotReserved {
			continue
		}
		// Tiered reclaim: a victim parked on its board's disk restores
		// later at disk cost; a diskless board pays the full eviction.
		reclaimed, demoted := c.Boards[v.p.Board].Jitsu.Reclaim(v.p.Svc)
		if demoted {
			c.Demotions++
		}
		if reclaimed {
			c.Preempts++
			// The boot joins the victim's destroy: until it lands,
			// joiners and the client's SYNs wait on the board's activation.
			if !c.summon(rep, via, onReady, v.p.Svc) && onReady != nil {
				onReady(core.ErrNoMemory)
			}
			return rep
		}
	}
	return nil
}

// views summarizes every placeable board for the policy. Boards for
// which skip returns true (e.g. already hosting a live replica of e)
// are omitted, as are members that are departed, leaving or suspect.
func (c *Cluster) views(e *Entry, skip func(i int) bool) []BoardView {
	out := make([]BoardView, 0, len(c.members))
	for _, m := range c.members {
		p := replicaOn(e, m.ID)
		if !m.Placeable() || !p.in(slotHeld&^slotReserved) {
			continue
		}
		if skip != nil && skip(m.ID) {
			continue
		}
		out = append(out, BoardView{
			Index:        m.ID,
			FreeMemMiB:   m.Board.Jitsu.FreeMemMiB(),
			GuestDomains: m.Board.Hyp.Domains() - m.baseDomains,
			NeedMiB:      e.Base.Image.MemMiB,
			Model:        m.Model,
		})
	}
	return out
}
