package cluster

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// The federation tier: a cluster of clusters. One root directory on a
// dedicated management network holds per-cluster *summaries* (bloom
// filter over service names + aggregate load/memory) instead of
// per-service rows — the summarized-delegation design the hierarchical
// directory literature shows keeps lookup cost flat as registrations
// grow. Resolution is two-level: the root scans its O(clusters) summary
// table, delegates the query over the management link to the owning
// cluster's board-0 directory (which schedules and answers
// authoritatively), and caches the delegation — negative answers
// included — in caches cleared on every root epoch bump.
//
// Placement gains an inter-cluster layer: new services home on the
// least-loaded cluster, a refused admission spills the service to a
// cluster with room, and sustained load skew — detected from the
// gossiped per-cluster arrival-rate EWMAs — sheds warm replicas across
// clusters through the typed api control plane's Checkpoint → Transfer
// (restore) leg, with no operator in the loop.
//
// The tier's files follow its roles: this one holds the configuration
// and the Federation's lifecycle, fedagent.go each member's agent,
// fedroot.go the root directory and its delegation, and fedskew.go the
// root's load decisions (spill target, summary rows, skew shedding).

// FedConfig sizes the federation and tunes the root's control loops.
// FedOptions are its only writers.
type FedConfig struct {
	// clusters is the number of member clusters built at construction.
	clusters int
	// Cluster configures every member (its boards boards each).
	Cluster Config
	// summaryEvery is the period of each member's summary push to the
	// root. 0 (the default) pushes only on directory changes, which
	// keeps the event queue drainable but disables the skew detector.
	summaryEvery sim.Duration
	// skewMinRate is the cluster-wide arrival rate (arrivals/sec) below
	// which the hottest cluster is never considered skewed; <= 0
	// disables skew-triggered shedding entirely.
	skewMinRate float64
	// skewRatio: skew exists when the coldest cluster's rate is at or
	// below this fraction of the hottest cluster's.
	skewRatio float64
	// skewRounds is how many consecutive summary rounds the same
	// cluster must stay hottest before a shed fires (sustained skew,
	// not a burst).
	skewRounds int
	// shedBatch is how many services one shed command moves.
	shedBatch int
	// spillOnRefuse re-homes a service to the least-loaded cluster when
	// its own cluster's admission refuses a delegated query.
	spillOnRefuse bool
	// delegate is the root's retransmit schedule for a delegated
	// resolve (or spill): Initial is the first try's wait for the reply,
	// doubling per retry, and Retries how many retransmits the root pays
	// before a delegation is written off as SERVFAIL. 0 disables
	// retransmission (one try, then SERVFAIL) — the ablation baseline.
	delegate sim.Backoff
	// wan, when set, shapes every member agent's federation management
	// link to the profile (RTT, loss, throughput) instead of the flat
	// fedLinkLatency/fedBitsPerSec LAN path; cross-cluster copies then
	// pace against its rate in 1 MiB chunks (xferLink).
	wan *netsim.WANProfile
	// tracer, when set, is shared by the root and every member cluster:
	// the root's delegation/spill/shed events render on lane 0 and
	// member cluster k's boards on lanes (k+1)*100 and up. Nil disables
	// tracing.
	tracer *obs.Tracer
}

// The federation management network's fixed constants.
const (
	// fedLinkLatency and fedBitsPerSec characterise the root<->cluster
	// management links when no WAN profile shapes them.
	fedLinkLatency = 200 * time.Microsecond
	fedBitsPerSec  = 1e9
)

// defaultFedConfig is four default clusters behind a passive root
// (summaries push on change; WithSummaryEvery arms the skew detector),
// with spill-on-refuse on.
func defaultFedConfig() FedConfig {
	return FedConfig{
		clusters:      4,
		Cluster:       defaultConfig(),
		skewMinRate:   2.0,
		skewRatio:     0.5,
		skewRounds:    3,
		shedBatch:     2,
		spillOnRefuse: true,
		delegate:      sim.Backoff{Initial: 5 * time.Millisecond, Factor: 2, Retries: 3},
	}
}

// FedOption tunes one aspect of a federation under construction.
type FedOption func(*FedConfig)

// WithClusters sets the member-cluster count.
func WithClusters(n int) FedOption {
	return func(c *FedConfig) { c.clusters = n }
}

// WithMemberOptions applies cluster options to every member cluster.
func WithMemberOptions(opts ...Option) FedOption {
	return func(c *FedConfig) {
		for _, o := range opts {
			o(&c.Cluster)
		}
	}
}

// WithSummaryEvery arms the periodic summary push (and with it the
// skew detector).
func WithSummaryEvery(d sim.Duration) FedOption {
	return func(c *FedConfig) { c.summaryEvery = d }
}

// WithSkewPolicy tunes the skew detector: minimum hot-cluster rate,
// cold/hot ratio, sustained rounds, and services shed per trigger.
// minRate <= 0 disables shedding.
func WithSkewPolicy(minRate, ratio float64, rounds, batch int) FedOption {
	return func(c *FedConfig) {
		c.skewMinRate = minRate
		c.skewRatio = ratio
		c.skewRounds = rounds
		c.shedBatch = batch
	}
}

// WithSpillOnRefuse toggles the admission-refusal spill path.
func WithSpillOnRefuse(on bool) FedOption {
	return func(c *FedConfig) { c.spillOnRefuse = on }
}

// WithDelegateRetry tunes the root's delegation retransmit: per-try
// timeout (doubling per retry; <= 0 keeps the one set before, 5 ms by
// default) and retry budget. retries = 0 is the no-retransmit ablation.
func WithDelegateRetry(timeout sim.Duration, retries int) FedOption {
	return func(c *FedConfig) {
		if timeout > 0 {
			c.delegate.Initial = timeout
		}
		c.delegate.Retries = retries
	}
}

// WithWAN shapes every member agent's federation management link to the
// profile: RTT/2 extra latency each way, the profile's loss rate, and
// its throughput cap. Cross-cluster copies pace against the profile's
// rate in 1 MiB chunks — one chunk's serialisation time is the floor on
// how long a delegation reply queues behind the bulk exchange — and the
// root's delegation retransmit waits max(100ms, 3×RTT) per try, three
// retries, so it clears the path RTT. A later WithDelegateRetry
// overrides the retransmit.
func WithWAN(p netsim.WANProfile) FedOption {
	return func(c *FedConfig) {
		prof := p
		c.wan = &prof
		c.delegate.Initial, c.delegate.Retries = max(100*time.Millisecond, 3*p.RTT), 3
	}
}

// WithFedTracer attaches the observability flight recorder to the whole
// federation: root events on lane 0, member cluster k's boards on lanes
// (k+1)*100 and up. (The name avoids colliding with the cluster-level
// WithTracer option in this package.)
func WithFedTracer(tr *obs.Tracer) FedOption {
	return func(c *FedConfig) { c.tracer = tr }
}

// Federation owns N member clusters behind one summarized root
// directory.
type Federation struct {
	Cfg     FedConfig
	eng     *sim.Engine
	fedNet  *netsim.Bridge // root <-> member agents (management)
	front   *netsim.Bridge // clients <-> root directory
	members []*FedMember
	root    *fedRoot
	clients []*FedClient
	// nextFedXfer numbers cross-cluster chunk exchanges (xfer.go).
	nextFedXfer uint32

	// Spills counts services re-homed because admission refused.
	Spills uint64
	// Sheds counts skew-triggered shed commands issued by the root.
	Sheds uint64
	// CrossMigrations counts warm replicas moved between clusters.
	CrossMigrations uint64
	// CrossAborts counts cross-cluster transfers that failed (the
	// source kept serving; nothing was lost).
	CrossAborts uint64
	// FedChunks counts cross-cluster chunk datagrams sent (retransmits
	// included); FedChunkRetx counts just the retransmits;
	// FedXferAborts counts chunk exchanges abandoned after a chunk
	// exhausted its retries.
	FedChunks     uint64
	FedChunkRetx  uint64
	FedXferAborts uint64

	// Reg mirrors the federation tier's counters (fed.* and root.*
	// names) for snapshot export; always present.
	Reg *obs.Registry
}

// FedMember is one cluster as the federation sees it.
type FedMember struct {
	ID      int
	Cluster *Cluster
	// Left marks a cluster removed from the federation.
	Left  bool
	agent *fedAgent
	// referral and glue are the root zone's NS record and its address for
	// this member's subzone, rendered once when the member is added (the
	// delegation is never removed). Every answer for a service homed here
	// shares the two slices; nobody writes an RR of a sent message.
	referral, glue []dns.RR
}

// MgmtLink returns this member agent's federation management link — the
// path its summary pushes, delegation replies and checkpoint chunks
// share. Experiments tap it to capture (and fingerprint) exactly what
// the shared uplink carried.
func (m *FedMember) MgmtLink() *netsim.Link {
	return m.agent.nic.Link()
}

// ErrNoSuchCluster is returned for operations on unknown/departed
// members.
var ErrNoSuchCluster = errors.New("cluster: no such federation member")

// Federation wire protocol: one UDP datagram per message on the
// federation management network.
const (
	fedPort = 7953

	fedOpResolve      = 1 // root -> agent: [op, qid:4, name]
	fedOpResolveReply = 2 // agent -> root: [op, qid:4, status, ip:4, extra:2, ttl:4]
	fedOpSummary      = 3 // agent -> root: [op, periodic, summary]
	fedOpShed         = 4 // root -> agent: [op, target:2, batch:1]
	fedOpSpill        = 5 // root -> agent: [op, qid:4, target:2, name]
	fedOpSpillReply   = 6 // agent -> root: [op, qid:4, ok]
	fedOpXferChunk    = 7 // agent -> agent: [op, id:4, idx:4, total:4]
	fedOpXferAck      = 8 // agent -> agent: [op, id:4, idx:4]

	fedStatusOK       = 0
	fedStatusNXDomain = 1
	fedStatusServFail = 2 // admission refused cluster-wide
	fedStatusMoved    = 3 // extra names the new home cluster
)

// FedRootAddr is the root directory's client-facing DNS address.
var FedRootAddr = netstack.IPv4(10, 254, 1, 1)

// rootMgmtIP / agentMgmtIP address the federation management network.
var rootMgmtIP = netstack.IPv4(10, 254, 0, 1)

func agentMgmtIP(id int) netstack.IP { return netstack.IPv4(10, 254, 0, byte(10+id)) }

// NewFederation builds the federation: member clusters on one shared
// engine, a root directory host on the client-facing front network, and
// one federation agent per cluster on the management network.
func NewFederation(opts ...FedOption) *Federation {
	cfg := defaultFedConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.clusters <= 0 {
		cfg.clusters = 1
	}
	if cfg.shedBatch <= 0 {
		cfg.shedBatch = 1
	}
	f := &Federation{Cfg: cfg}
	f.eng = sim.New(cfg.Cluster.Board.Seed)
	cfg.tracer.BindClock(f.eng.Now)
	f.fedNet = netsim.NewBridge(f.eng, "fed-mgmt", 10*time.Microsecond)
	f.front = netsim.NewBridge(f.eng, "fed-front", 10*time.Microsecond)
	f.root = newFedRoot(f)
	f.Reg = obs.NewRegistry("federation")
	f.Reg.CounterFunc("fed.spills", func() uint64 { return f.Spills })
	f.Reg.CounterFunc("fed.sheds", func() uint64 { return f.Sheds })
	f.Reg.CounterFunc("fed.cross_migrations", func() uint64 { return f.CrossMigrations })
	f.Reg.CounterFunc("fed.cross_aborts", func() uint64 { return f.CrossAborts })
	f.Reg.CounterFunc("fed.chunks", func() uint64 { return f.FedChunks })
	f.Reg.CounterFunc("fed.chunk_retx", func() uint64 { return f.FedChunkRetx })
	f.Reg.CounterFunc("fed.xfer_aborts", func() uint64 { return f.FedXferAborts })
	f.Reg.CounterFunc("root.lookups", func() uint64 { return f.root.Lookups })
	f.Reg.CounterFunc("root.scans", func() uint64 { return f.root.Scans })
	f.Reg.CounterFunc("root.delegations", func() uint64 { return f.root.Delegations })
	f.Reg.CounterFunc("root.deleg_hits", func() uint64 { return f.root.DelegHits })
	f.Reg.CounterFunc("root.neg_hits", func() uint64 { return f.root.NegHits })
	f.Reg.CounterFunc("root.nxdomains", func() uint64 { return f.root.NXDomains })
	f.Reg.CounterFunc("root.servfails", func() uint64 { return f.root.ServFails })
	f.Reg.CounterFunc("root.deleg_retx", func() uint64 { return f.root.DelegRetx })
	f.Reg.CounterFunc("root.deleg_timeouts", func() uint64 { return f.root.DelegTimeouts })
	for i := 0; i < cfg.clusters; i++ {
		f.addMember()
	}
	return f
}

// addMember builds one cluster on the shared engine plus its federation
// agent, delegates its subzone at the root, and bootstraps its summary
// row synchronously (construction-time members need no join round).
func (f *Federation) addMember() *FedMember {
	id := len(f.members)
	ccfg := f.Cfg.Cluster
	ccfg.tracer = f.Cfg.tracer
	ccfg.traceTIDBase = (id + 1) * 100
	m := &FedMember{ID: id, Cluster: buildOn(f.eng, ccfg)}
	m.agent = newFedAgent(f, m)
	f.members = append(f.members, m)
	apex := f.root.zone.Apex
	child := fmt.Sprintf("c%d.%s", id, apex)
	f.root.zone.Delegate(child, "ns."+child, agentMgmtIP(id))
	m.referral = slices.Clip(f.root.zone.Lookup(child, dns.TypeNS))
	m.glue = slices.Clip(f.root.zone.Lookup("ns."+child, dns.TypeA))
	f.root.delegated = append(f.root.delegated, child)
	if err := m.agent.host.BindUDP(fedPort, m.agent.recv); err != nil {
		panic(fmt.Sprintf("cluster: bind federation agent: %v", err))
	}
	m.agent.startPushing()
	f.root.applySummary(m.agent.buildSummary(), false)
	return m
}

// live returns the member with the given id, or nil when there is none
// or it has left the federation.
func (f *Federation) live(id int) *FedMember {
	if id < 0 || id >= len(f.members) || f.members[id].Left {
		return nil
	}
	return f.members[id]
}

// Members lists the federation's clusters by id (departed included).
func (f *Federation) Members() []*FedMember { return f.members }

// Eng returns the shared simulation engine.
func (f *Federation) Eng() *sim.Engine { return f.eng }

// RunAll drains the shared engine (passive summaries only).
func (f *Federation) RunAll() { f.eng.Run() }

// RunUntil advances the shared engine to virtual time t.
func (f *Federation) RunUntil(t sim.Duration) { f.eng.RunUntil(t) }

// Stop quiesces the periodic summary pushes and every member cluster's
// gossip agents so the event queue can drain.
func (f *Federation) Stop() {
	for _, m := range f.members {
		m.agent.stop()
		m.Cluster.StopMembership()
	}
}

// namespaced gives sc a cluster-scoped address: the second octet
// encodes the owning cluster (10+id) and, per the existing replica
// convention, the third encodes the board — so any replica IP a client
// sees maps back to (cluster, board).
func (f *Federation) namespaced(sc core.ServiceConfig, cid int) core.ServiceConfig {
	sc.IP[1] = byte(10 + cid)
	return sc
}

// transferRequest is the Transfer that re-homes e on cluster dst: e's
// config in dst's address space, with its warm floor and policy. A
// caller that carries state adds the checkpoint.
func (f *Federation) transferRequest(e *Entry, dst *FedMember) api.TransferRequest {
	return api.TransferRequest{Config: f.namespaced(e.Base, dst.ID), MinWarm: e.MinWarm, Policy: e.Policy.Name()}
}

// markMoved records that e's home is now cluster home: the directory
// answers Moved for it from here on.
func (c *Cluster) markMoved(e *Entry, home int) {
	e.moved = true
	c.movedTo[e.Name] = home
}

// RegisterService homes a new service on the least-loaded cluster (by
// registered memory footprint per capacity — the inter-cluster
// placement layer) and registers it there. The returned member is the
// service's home.
func (f *Federation) RegisterService(sc core.ServiceConfig, opts ...ServiceOption) (*FedMember, *Entry) {
	m := f.placeHome()
	if m == nil {
		return nil, nil
	}
	e := m.Cluster.RegisterService(f.namespaced(sc, m.ID), opts...)
	return m, e
}

// placeHome picks the member with the lowest registered-demand share of
// its capacity (ties break toward the lowest id, so equal clusters fill
// round-robin).
func (f *Federation) placeHome() *FedMember {
	var best *FedMember
	bestScore := 0.0
	for _, m := range f.members {
		if m.Left {
			continue
		}
		demand := 0
		cap, _ := m.Cluster.memMiB()
		for e := range m.Cluster.dir.walk {
			if !e.moved {
				demand += e.Base.Image.MemMiB
			}
		}
		if cap == 0 {
			continue
		}
		score := float64(demand) / float64(cap)
		if best == nil || score < bestScore {
			best, bestScore = m, score
		}
	}
	return best
}

// AddCluster grows the federation at runtime: a new member cluster is
// built on the shared engine, its subzone delegated at the root, and
// its (empty) summary row bootstrapped — from the next summary round on
// it is a spill/shed target like any construction-time member. The new
// member reuses the federation's cluster config (tracer lanes continue
// the (id+1)*100 block convention) and starts its periodic summary push
// immediately when summaryEvery is armed.
func (f *Federation) AddCluster() *FedMember {
	m := f.addMember()
	f.root.bumpEpoch()
	return m
}

// RemoveCluster takes a member out of the federation: its summary row
// drops (bumping the root epoch, so no cached delegation survives),
// in-flight transfers toward it abort harmlessly, and the services
// still homed there are re-homed onto the least-loaded survivors —
// warm when a replica's state can be checkpointed (it lands on the
// destination's disk tier, so the next activation resumes instead of
// cold-booting), cold only when no replica exists to capture.
func (f *Federation) RemoveCluster(id int) error {
	m := f.live(id)
	if m == nil {
		return ErrNoSuchCluster
	}
	m.Left = true
	m.agent.stop()
	delete(f.root.summaries, id)
	f.root.bumpEpoch()
	f.root.failPendingFor(id)
	entries := m.Cluster.dir.Entries()
	for _, e := range entries {
		if e.moved {
			continue
		}
		dst := f.placeHome()
		if dst == nil {
			continue // nowhere left; the registration dies with the cluster
		}
		req := f.transferRequest(e, dst)
		// Departure is administrative, not a crash: surviving replicas
		// can still be checkpointed, so their warm state leaves with
		// them instead of dying with the cluster.
		if src := e.transferSource(true); src != nil {
			if cpResp := m.Cluster.boardAPI(src.Board).Checkpoint(api.CheckpointRequest{Name: e.Name}); cpResp.Err == nil {
				req.Checkpoint = cpResp.Checkpoint
				req.ToDisk = true
			}
		}
		if resp := dst.Cluster.API().Transfer(req); resp.Err == nil {
			m.Cluster.markMoved(e, dst.ID)
		}
	}
	for _, e := range entries {
		m.Cluster.Unregister(e.Name)
	}
	m.Cluster.StopMembership()
	return nil
}

// Shed issues one shed command by hand: the root orders cluster from's
// agent to move up to batch of its hottest warm services to cluster to
// over the congestion-controlled Checkpoint -> Transfer leg. This is
// exactly the datagram the sustained-skew detector emits — same wire
// op, same agent-side sweep — minus the detection, so operator-driven
// rebalances (and the Stampede experiment's mass move) can trigger the
// transfer machinery at a chosen instant.
func (f *Federation) Shed(from, to, batch int) error {
	if f.live(from) == nil || f.live(to) == nil {
		return ErrNoSuchCluster
	}
	if from == to || batch <= 0 || batch > 255 {
		return fmt.Errorf("cluster: bad shed %d -> %d batch %d", from, to, batch)
	}
	f.root.orderShed(from, to, batch)
	return nil
}
