package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
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
// included — with epoch invalidation riding dns.Server.Epoch.
//
// Placement gains an inter-cluster layer: new services home on the
// least-loaded cluster, a refused admission spills the service to a
// cluster with room, and sustained load skew — detected from the
// gossiped per-cluster arrival-rate EWMAs — sheds warm replicas across
// clusters through the typed api control plane's Checkpoint → Transfer
// (restore) leg, with no operator in the loop.

// FedConfig sizes the federation and tunes the root's control loops.
type FedConfig struct {
	// Clusters is the number of member clusters built at construction.
	Clusters int
	// Cluster configures every member (Boards boards each).
	Cluster Config
	// SummaryEvery is the period of each member's summary push to the
	// root. 0 (the default) pushes only on directory changes, which
	// keeps the event queue drainable but disables the skew detector.
	SummaryEvery sim.Duration
	// SkewMinRate is the cluster-wide arrival rate (arrivals/sec) below
	// which the hottest cluster is never considered skewed; <= 0
	// disables skew-triggered shedding entirely.
	SkewMinRate float64
	// SkewRatio: skew exists when the coldest cluster's rate is at or
	// below this fraction of the hottest cluster's.
	SkewRatio float64
	// SkewRounds is how many consecutive summary rounds the same
	// cluster must stay hottest before a shed fires (sustained skew,
	// not a burst).
	SkewRounds int
	// ShedBatch is how many services one shed command moves.
	ShedBatch int
	// SpillOnRefuse re-homes a service to the least-loaded cluster when
	// its own cluster's admission refuses a delegated query.
	SpillOnRefuse bool
	// DelegateTimeout is the root's per-try wait for a delegated
	// resolve (or spill) reply before retransmitting; <= 0 takes the
	// default. The timeout doubles per retry.
	DelegateTimeout sim.Duration
	// DelegateRetries is how many retransmits the root pays before a
	// delegation is written off as SERVFAIL. 0 disables retransmission
	// (one try, then SERVFAIL) — the ablation baseline.
	DelegateRetries int
	// WAN, when set, shapes every member agent's federation management
	// link to the profile (RTT, loss, throughput) instead of the flat
	// fedLinkLatency/fedBitsPerSec LAN path; cross-cluster copies then
	// pace against its rate in 1 MiB chunks (xferLink).
	WAN *netsim.WANProfile
	// Tracer, when set, is shared by the root and every member cluster:
	// the root's delegation/spill/shed events render on lane 0 and
	// member cluster k's boards on lanes (k+1)*100 and up. Nil disables
	// tracing.
	Tracer *obs.Tracer
}

// The federation management network's fixed constants.
const (
	// fedLinkLatency and fedBitsPerSec characterise the root<->cluster
	// management links when no WAN profile shapes them.
	fedLinkLatency = 200 * time.Microsecond
	fedBitsPerSec  = 1e9
)

// DefaultFedConfig is four default clusters behind a passive root
// (summaries push on change; enable SummaryEvery for the skew
// detector), with spill-on-refuse on.
func DefaultFedConfig() FedConfig {
	return FedConfig{
		Clusters:        4,
		Cluster:         DefaultConfig(),
		SkewMinRate:     2.0,
		SkewRatio:       0.5,
		SkewRounds:      3,
		ShedBatch:       2,
		SpillOnRefuse:   true,
		DelegateTimeout: 5 * time.Millisecond,
		DelegateRetries: 3,
	}
}

// FedOption tunes one aspect of a federation under construction.
type FedOption func(*FedConfig)

// WithClusters sets the member-cluster count.
func WithClusters(n int) FedOption {
	return func(c *FedConfig) { c.Clusters = n }
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
	return func(c *FedConfig) { c.SummaryEvery = d }
}

// WithSkewPolicy tunes the skew detector: minimum hot-cluster rate,
// cold/hot ratio, sustained rounds, and services shed per trigger.
// minRate <= 0 disables shedding.
func WithSkewPolicy(minRate, ratio float64, rounds, batch int) FedOption {
	return func(c *FedConfig) {
		c.SkewMinRate = minRate
		c.SkewRatio = ratio
		c.SkewRounds = rounds
		c.ShedBatch = batch
	}
}

// WithSpillOnRefuse toggles the admission-refusal spill path.
func WithSpillOnRefuse(on bool) FedOption {
	return func(c *FedConfig) { c.SpillOnRefuse = on }
}

// WithDelegateRetry tunes the root's delegation retransmit: per-try
// timeout (doubling per retry) and retry budget. retries = 0 is the
// no-retransmit ablation.
func WithDelegateRetry(timeout sim.Duration, retries int) FedOption {
	return func(c *FedConfig) {
		c.DelegateTimeout = timeout
		c.DelegateRetries = retries
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
		c.WAN = &prof
		c.DelegateTimeout, c.DelegateRetries = max(100*time.Millisecond, 3*p.RTT), 3
	}
}

// WithFedTracer attaches the observability flight recorder to the whole
// federation: root events on lane 0, member cluster k's boards on lanes
// (k+1)*100 and up. (The name avoids colliding with the cluster-level
// WithTracer option in this package.)
func WithFedTracer(tr *obs.Tracer) FedOption {
	return func(c *FedConfig) { c.Tracer = tr }
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
	cfg := DefaultFedConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Clusters <= 0 {
		cfg.Clusters = 1
	}
	if cfg.ShedBatch <= 0 {
		cfg.ShedBatch = 1
	}
	orDefault(&cfg.DelegateTimeout, DefaultFedConfig().DelegateTimeout)
	f := &Federation{Cfg: cfg}
	f.eng = sim.New(cfg.Cluster.Board.Seed)
	cfg.Tracer.BindClock(f.eng.Now)
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
	for i := 0; i < cfg.Clusters; i++ {
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
	ccfg.Tracer = f.Cfg.Tracer
	ccfg.TraceTIDBase = (id + 1) * 100
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

// member returns the live-or-left member with the given id (nil when
// out of range).
func (f *Federation) member(id int) *FedMember {
	if id < 0 || id >= len(f.members) {
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
		demand, cap := 0, 0
		for _, mb := range m.Cluster.Members() {
			if mb.State != MemberDead && mb.State != MemberLeft {
				cap += m.Cluster.Cfg.Board.TotalMemMiB
			}
		}
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
// immediately when SummaryEvery is armed.
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
	m := f.member(id)
	if m == nil || m.Left {
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
		req := api.TransferRequest{
			Config: f.namespaced(e.Base, dst.ID), MinWarm: e.MinWarm, Policy: e.Policy.Name(),
		}
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
			e.moved = true
			m.Cluster.movedTo[e.Name] = dst.ID
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
	src, dst := f.member(from), f.member(to)
	if src == nil || src.Left || dst == nil || dst.Left {
		return ErrNoSuchCluster
	}
	if from == to || batch <= 0 || batch > 255 {
		return fmt.Errorf("cluster: bad shed %d -> %d batch %d", from, to, batch)
	}
	f.root.orderShed(from, to, batch)
	return nil
}

// ---- federation agent (one per member cluster) ----

// TriggerFedDelegate is the delegated-resolution frontend's name: the
// root summons services through it when it delegates a query to this
// cluster's board-0 directory, so per-trigger accounting separates
// federation traffic from the cluster's own DNS front door.
const TriggerFedDelegate = "fed-delegate"

// fedAgent is a member cluster's federation endpoint: a host on the
// federation management network that answers delegated resolutions
// against the cluster directory, pushes summaries to the root, and
// executes spill/shed transfers. The delegated queries it fires (Via
// TriggerFedDelegate) drive the same Activation machines every other
// frontend does.
type fedAgent struct {
	f   *Federation
	m   *FedMember
	nic *netsim.NIC
	// copier is this agent's checkpoint-copy endpoint on fedPort and
	// owns host, the agent's federation-network stack (xfer.go).
	copier
	// dirEpoch counts directory changes; it rides every summary so the
	// root knows when its caches went stale.
	dirEpoch uint64
	pushEv   sim.Event
	pushFn   func() // a.periodicPush, bound once
	// pushPending coalesces change-driven pushes within one link delay.
	pushPending bool
	stopped     bool
}

func newFedAgent(f *Federation, m *FedMember) *fedAgent {
	a := &fedAgent{f: f, m: m}
	a.pushFn = a.periodicPush
	a.nic = netsim.NewNIC(f.eng, fmt.Sprintf("fed%d", m.ID), netsim.MACFor(0xB000+m.ID))
	f.fedNet.ConnectNIC(a.nic, fedLinkLatency, fedBitsPerSec)
	if f.Cfg.WAN != nil {
		f.Cfg.WAN.Apply(a.nic.Link(), int64(0xFED0+m.ID))
	}
	a.copier = newCopier(netstack.NewHost(f.eng, fmt.Sprintf("fed%d", m.ID), a.nic, agentMgmtIP(m.ID), netstack.Dom0Profile()), fedPort, fedOpXferChunk)
	m.Cluster.onDirChange = a.dirChanged
	return a
}

func (a *fedAgent) startPushing() {
	if a.f.Cfg.SummaryEvery <= 0 || a.stopped {
		return
	}
	a.pushEv = a.f.eng.After(a.f.Cfg.SummaryEvery, a.pushFn)
}

func (a *fedAgent) periodicPush() {
	if !a.stopped {
		a.push(true)
		a.startPushing()
	}
}

func (a *fedAgent) stop() {
	a.stopped = true
	a.f.eng.Cancel(a.pushEv)
}

// dirChanged bumps the directory epoch and schedules one coalesced
// summary push a link delay out.
func (a *fedAgent) dirChanged() {
	a.dirEpoch++
	if a.stopped || a.pushPending {
		return
	}
	a.pushPending = true
	a.f.eng.After(fedLinkLatency, func() {
		a.pushPending = false
		if !a.stopped {
			a.push(false)
		}
	})
}

func (a *fedAgent) buildSummary() Summary {
	return a.m.Cluster.buildSummary(a.m.ID, a.dirEpoch, a.f.eng.Now())
}

// push sends the cluster's current summary row to the root.
func (a *fedAgent) push(periodic bool) {
	buf := make([]byte, 0, 2+summaryWireLen)
	buf = append(buf, fedOpSummary, 0)
	if periodic {
		buf[1] = 1
	}
	buf = EncodeSummary(a.buildSummary(), buf)
	a.host.SendUDP(rootMgmtIP, fedPort, fedPort, buf)
}

// recv handles one management datagram from the root (or, for the
// chunk-exchange ops, a sibling agent).
func (a *fedAgent) recv(src netstack.IP, _ uint16, payload []byte) {
	if a.stopped || a.m.Left || len(payload) < 1 {
		return
	}
	switch payload[0] {
	case fedOpXferChunk, fedOpXferAck:
		a.copier.recv(src, fedPort, payload)
	case fedOpResolve:
		if len(payload) < 6 {
			return
		}
		qid := getU32(payload[1:5])
		a.resolve(qid, string(payload[5:]))
	case fedOpShed:
		if len(payload) < 4 {
			return
		}
		a.shed(int(payload[1])<<8|int(payload[2]), int(payload[3]))
	case fedOpSpill:
		if len(payload) < 8 {
			return
		}
		qid := getU32(payload[1:5])
		target := int(payload[5])<<8 | int(payload[6])
		a.spill(qid, target, string(payload[7:]))
	}
}

// reply sends one resolve reply back to the root.
func (a *fedAgent) reply(qid uint32, status byte, ip netstack.IP, extra uint16, ttl uint32) {
	buf := binary.BigEndian.AppendUint32(append(make([]byte, 0, 16), fedOpResolveReply), qid)
	buf = append(buf, status, ip[0], ip[1], ip[2], ip[3], byte(extra>>8), byte(extra))
	a.host.SendUDP(rootMgmtIP, fedPort, fedPort, binary.BigEndian.AppendUint32(buf, ttl))
}

// resolve answers one delegated query authoritatively: schedule the
// placement exactly as the cluster's own DNS front door would, but
// accounted under the fed-delegate trigger.
func (a *fedAgent) resolve(qid uint32, name string) {
	c := a.m.Cluster
	name = dns.CanonicalName(name)
	e := c.dir.Lookup(name)
	if e == nil || e.moved {
		if cid, ok := c.movedTo[name]; ok {
			a.reply(qid, fedStatusMoved, netstack.IP{}, uint16(cid), 0)
			return
		}
		a.reply(qid, fedStatusNXDomain, netstack.IP{}, 0, 0)
		return
	}
	p, _ := c.schedule(e, TriggerFedDelegate, nil)
	if p == nil {
		a.reply(qid, fedStatusServFail, netstack.IP{}, 0, 0)
		return
	}
	a.reply(qid, fedStatusOK, p.Svc.Cfg.IP, 0, p.Svc.Cfg.TTL)
}

// spill re-homes one service cold after its admission refused: the
// target cluster (picked by the root from its summaries and named in
// the command, so root and agent agree) adopts the config, and this
// cluster forgets the name. Replies so the root can re-delegate the
// waiting query.
func (a *fedAgent) spill(qid uint32, target int, name string) {
	name = dns.CanonicalName(name)
	ok := a.spillNow(name, target)
	buf := binary.BigEndian.AppendUint32(append(make([]byte, 0, 8), fedOpSpillReply), qid)
	if ok {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	a.host.SendUDP(rootMgmtIP, fedPort, fedPort, buf)
}

// lane is the trace lane federation-level events about this member
// cluster land on: its board-0 lane (boards occupy (ID+1)*100 + i).
func (a *fedAgent) lane() int {
	return a.m.Cluster.Cfg.TraceTIDBase
}

func (a *fedAgent) spillNow(name string, target int) bool {
	c := a.m.Cluster
	e := c.dir.Lookup(name)
	if e == nil || e.moved {
		return false
	}
	dst := a.f.member(target)
	if dst == nil || dst.Left || dst == a.m {
		return false
	}
	resp := dst.Cluster.API().Transfer(api.TransferRequest{
		Config: a.f.namespaced(e.Base, dst.ID), MinWarm: e.MinWarm, Policy: e.Policy.Name(),
	})
	if resp.Err != nil {
		return false
	}
	a.f.Spills++
	if tr := a.f.Cfg.Tracer; tr != nil {
		tr.Instant(a.lane(), "fed", "spill",
			obs.Str("svc", name), obs.Num("src", int64(a.m.ID)), obs.Num("dst", int64(dst.ID)))
	}
	e.moved = true
	c.movedTo[name] = dst.ID
	c.Unregister(name) // no live replica exists — admission just refused
	return true
}

// spillTarget picks the least-loaded live cluster other than from.
func (f *Federation) spillTarget(from int) *FedMember {
	var best *FedMember
	bestLoad := uint32(0)
	for _, m := range f.members {
		if s := f.root.summaries[m.ID]; s != nil && !m.Left && m.ID != from {
			if best == nil || s.LoadMilli < bestLoad {
				best, bestLoad = m, s.LoadMilli
			}
		}
	}
	return best
}

// shed moves up to batch of this cluster's hottest warm services to the
// target cluster — the skew-triggered cross-cluster rebalance. Each
// move is a live migration: checkpoint here, copy across the federation
// link, restore there via the typed Transfer verb, then drain and
// retire the local registration.
func (a *fedAgent) shed(target, batch int) {
	dst := a.f.member(target)
	if dst == nil || dst.Left || a.m.Left {
		return
	}
	c := a.m.Cluster
	now := a.f.eng.Now()
	entries := c.dir.Entries() // name-sorted: deterministic sweep
	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].effectiveRate(now) > entries[j].effectiveRate(now)
	})
	moved := 0
	for _, e := range entries {
		if moved >= batch {
			break
		}
		if e.moved {
			continue
		}
		src := e.transferSource(false)
		if src == nil {
			continue
		}
		a.transferOut(e, src, dst)
		moved++
	}
}

// transferOut live-migrates one warm replica of e to cluster dst: the
// federation transfer leg. Make-before-break — the source serves until
// the destination's restore completes, then drains for the same guard
// window a preemptor honours before the registration retires.
func (a *fedAgent) transferOut(e *Entry, p *Placement, dst *FedMember) {
	c := a.m.Cluster
	cpResp := c.boardAPI(p.Board).Checkpoint(api.CheckpointRequest{Name: e.Name})
	if cpResp.Err != nil {
		return
	}
	cp := cpResp.Checkpoint
	p.migrating = true
	var transfer obs.Span
	if tr := a.f.Cfg.Tracer; tr != nil {
		transfer = tr.Begin(a.lane(), "fed", "transfer",
			obs.Str("svc", e.Name), obs.Num("state_mib", int64(cp.StateMiB)),
			obs.Num("dst", int64(dst.ID)))
	}
	abort := func() {
		p.migrating = false
		a.f.CrossAborts++
		a.f.Cfg.Tracer.End(transfer, obs.Str("status", "aborted"))
	}
	a.fedCopy(dst.ID, cp.StateMiB, func(ok bool) {
		if !ok {
			// The chunk exchange died (federation path partitioned, or
			// the destination agent went silent); the source keeps
			// serving untouched.
			abort()
			return
		}
		if a.m.Left || e.moved || p.gone ||
			!(p.Svc.State.Booted() || p.Svc.State == core.StateColdDisk) {
			abort()
			return
		}
		if dst.Left {
			// Mid-transfer departure of the destination: the copy has
			// nowhere to land; the source keeps serving untouched.
			abort()
			return
		}
		resp := dst.Cluster.API().Transfer(api.TransferRequest{
			Config: a.f.namespaced(e.Base, dst.ID), MinWarm: e.MinWarm,
			Policy: e.Policy.Name(), Checkpoint: cp,
			// A disk-resident source sheds its checkpoint straight onto
			// the destination's disk tier — no paging in on either side.
			ToDisk: p.Svc.State == core.StateColdDisk,
			OnReady: func(err error) {
				if err != nil {
					// The destination lost its headroom during the
					// restore; roll its adoption back and keep serving
					// here.
					dst.Cluster.Unregister(e.Name)
					abort()
					return
				}
				a.f.CrossMigrations++
				a.f.Cfg.Tracer.End(transfer, obs.Str("status", "ready"))
				a.retire(e, p, dst.ID)
			},
		})
		if resp.Err != nil {
			abort()
		}
	})
}

// retire switches a shed service over to its new home: resolutions
// redirect immediately (moved marking + summary push), while the local
// replica drains for the answer-guard window before the registration
// is unregistered — a client answered with the old address moments ago
// can still connect.
func (a *fedAgent) retire(e *Entry, p *Placement, newHome int) {
	c := a.m.Cluster
	e.moved = true
	c.movedTo[e.Name] = newHome
	p.migrating = false
	p.draining = true
	if tr := a.f.Cfg.Tracer; tr != nil {
		tr.Instant(a.lane(), "fed", "switchover",
			obs.Str("svc", e.Name), obs.Num("dst", int64(newHome)))
	}
	a.dirChanged()
	guard := 10 * bootEstimate
	a.f.eng.After(guard, func() {
		// Only retire the entry this drain belongs to: the name may have
		// been re-adopted (a spill back) since, and its fresh
		// registration must survive.
		if c.dir.entries[e.Name] == e {
			c.Unregister(e.Name)
		}
	})
}

// ---- root directory ----

// maxFedCacheEntries bounds the root's delegation and negative caches;
// past the cap answers still resolve, just uncached.
const maxFedCacheEntries = 8192

// delegEntry is one cached name -> cluster delegation, valid while its
// epoch matches the root DNS server's.
type delegEntry struct {
	cluster int
	epoch   uint64
}

// pendingResolve is one client query parked while the root delegates.
// It carries what a delegation needs — a lone candidate (a cache hit, a
// redirect), the short datagram, the retransmit callback — in itself, so
// a delegation allocates the row and one bound func and nothing per try.
type pendingResolve struct {
	r       *fedRoot
	query   *dns.Message
	respond func(*dns.Message)
	name    string
	cands   []int
	one     [1]int // cands' array when there is just one (only)
	idx     int
	spillTo int
	hops    int
	// asked is the cluster the outstanding datagram went to, so a
	// member removal can fail (or re-route) the queries waiting on it;
	// qid is the id it went out under.
	asked int
	qid   uint32
	more  bool // the armed timeout's verdict: another retransmit is due
	// wire is the outstanding datagram verbatim (in buf when it fits),
	// so a timeout can retransmit exactly what was lost; timer is the
	// armed retransmit, timeout its callback (p.onTimeout, bound once)
	// and tries the transmissions so far.
	wire    []byte
	buf     [48]byte
	timer   sim.Event
	timeout func()
	tries   int
}

// only makes cid the query's single candidate.
func (p *pendingResolve) only(cid int) {
	p.one[0] = cid
	p.cands, p.idx = p.one[:], 0
}

// fedRoot is the federation's root directory: the client-facing DNS
// server whose InterceptAsync delegates over the management network,
// the summary table (the only authoritative state — one row per
// cluster), and the epoch-stamped delegation/negative caches.
type fedRoot struct {
	f    *Federation
	mgmt *netstack.Host // on the federation management network
	fr   *netstack.Host // on the client-facing front network
	srv  *dns.Server
	zone *dns.Zone
	// summaries is the root directory proper: O(clusters) rows, held for
	// members only (applySummary) — ranging f.members and looking each
	// row up is the deterministic scan in id order, no key list to sort.
	summaries map[int]*Summary
	// delegated lists the c<k>.<apex> subzones so service-looking
	// queries under them fall through to the zone's referral path.
	delegated []string
	deleg     map[string]delegEntry
	neg       map[string]uint64
	pending   map[uint32]*pendingResolve
	nextQID   uint32
	retx      sim.Backoff // the delegation retransmit schedule, from the config
	// skew detector state: the argmax cluster of the last skewed round
	// and how many consecutive rounds it has stayed hottest.
	hotID     int
	hotStreak int

	// FedRootStats holds the root's counters; its StateSize and Epoch
	// stay zero here and are filled in by Federation.Root.
	FedRootStats
}

func newFedRoot(f *Federation) *fedRoot {
	r := &fedRoot{
		f:         f,
		summaries: make(map[int]*Summary),
		deleg:     make(map[string]delegEntry),
		neg:       make(map[string]uint64),
		pending:   make(map[uint32]*pendingResolve),
		hotID:     -1,
		retx:      sim.Backoff{Initial: f.Cfg.DelegateTimeout, Factor: 2, Retries: f.Cfg.DelegateRetries},
	}
	mgmtNIC := netsim.NewNIC(f.eng, "fed-root", netsim.MACFor(0xB100))
	f.fedNet.ConnectNIC(mgmtNIC, fedLinkLatency, fedBitsPerSec)
	r.mgmt = netstack.NewHost(f.eng, "fed-root", mgmtNIC, rootMgmtIP, netstack.Dom0Profile())
	if err := r.mgmt.BindUDP(fedPort, r.recv); err != nil {
		panic(fmt.Sprintf("cluster: fed root bind: %v", err))
	}

	frontNIC := netsim.NewNIC(f.eng, "fed-root-dns", netsim.MACFor(0xB200))
	f.front.ConnectNIC(frontNIC, core.ExtLatency, core.ExtBitsPerSec)
	r.fr = netstack.NewHost(f.eng, "fed-root-dns", frontNIC, FedRootAddr, netstack.Dom0Profile())
	r.zone = dns.NewZone(f.Cfg.Cluster.Board.Zone)
	r.zone.Add(dns.RR{Name: "ns." + r.zone.Apex, Type: dns.TypeA, TTL: 300, A: FedRootAddr})
	srv, err := dns.Serve(r.fr, r.zone)
	if err != nil {
		panic(fmt.Sprintf("cluster: fed root dns: %v", err))
	}
	srv.InterceptAsync = r.interceptAsync
	r.srv = srv
	return r
}

// bumpEpoch invalidates every cached delegation and negative answer —
// the wholesale invalidation dns.Server itself uses, riding the same
// Epoch counter.
func (r *fedRoot) bumpEpoch() {
	r.srv.BumpEpoch()
	clear(r.deleg)
	clear(r.neg)
}

// Root snapshots the root directory's counters.
func (f *Federation) Root() *FedRootStats {
	st := f.root.FedRootStats
	st.StateSize, st.Epoch = len(f.root.summaries), f.root.srv.Epoch
	return &st
}

// FedRootStats is a snapshot of the root directory's counters.
type FedRootStats struct {
	// StateSize is the root's authoritative state: its summary rows. The
	// whole point of the tier — this scales with clusters, never with
	// services. Epoch is the root DNS server's cache epoch.
	StateSize int
	Epoch     uint64
	// Lookups counts service queries the root fielded; Scans the
	// summary-table scans (cache misses); Delegations the management
	// round trips; DelegHits/NegHits the cache hits.
	Lookups     uint64
	Scans       uint64
	Delegations uint64
	DelegHits   uint64
	NegHits     uint64
	NXDomains   uint64
	ServFails   uint64
	// DelegRetx counts retransmitted delegation datagrams; DelegTimeouts
	// the delegations written off after the retry budget (answered
	// SERVFAIL, never cached negative — the name may well exist).
	DelegRetx     uint64
	DelegTimeouts uint64
}

// underDelegatedSubzone reports whether name belongs to a member's
// c<k> subzone — those take the zone's NS-referral path, not summary
// resolution.
func (r *fedRoot) underDelegatedSubzone(name string) bool {
	for _, child := range r.delegated {
		if name == child {
			return true
		}
		if len(name) > len(child) && name[len(name)-len(child)-1] == '.' && name[len(name)-len(child):] == child {
			return true
		}
	}
	return false
}

// interceptAsync is the root's resolution path: summary-table scan,
// delegation over the management link, and epoch-stamped caching of
// both positive delegations and negatives.
func (r *fedRoot) interceptAsync(query *dns.Message, respond func(*dns.Message)) bool {
	if len(query.Questions) != 1 {
		return false
	}
	q := query.Questions[0]
	if q.Type != dns.TypeA && q.Type != dns.TypeANY {
		return false
	}
	name := dns.CanonicalName(q.Name)
	if !r.zone.Contains(name) || r.underDelegatedSubzone(name) {
		return false // refused / referral: the zone path handles it
	}
	if len(r.zone.Lookup(name, dns.TypeANY)) > 0 {
		return false // root-zone infrastructure records (ns.<apex>)
	}
	r.Lookups++
	epoch := r.srv.Epoch
	if de, ok := r.deleg[name]; ok && de.epoch == epoch {
		if m := r.f.member(de.cluster); m != nil && !m.Left {
			r.DelegHits++
			r.delegate(r.park(query, respond, name, nil, de.cluster))
			return true
		}
	}
	if e, ok := r.neg[name]; ok && e == epoch {
		r.NegHits++
		r.NXDomains++
		respond(r.negative(query))
		return true
	}
	r.Scans++
	var cands []int
	for _, m := range r.f.members {
		if s := r.summaries[m.ID]; s != nil && !m.Left && s.Bloom.MayContain(name) {
			cands = append(cands, m.ID)
		}
	}
	if len(cands) == 0 {
		r.cacheNegative(name)
		r.NXDomains++
		respond(r.negative(query))
		return true
	}
	r.delegate(r.park(query, respond, name, cands, -1))
	return true
}

// park opens the row for one client query: cands from a summary scan, or
// (cands nil) the one cluster the delegation cache named.
func (r *fedRoot) park(query *dns.Message, respond func(*dns.Message), name string, cands []int, cached int) *pendingResolve {
	p := &pendingResolve{r: r, query: query, respond: respond, name: name, cands: cands, spillTo: -1}
	if cands == nil {
		p.only(cached)
	}
	p.timeout = p.onTimeout
	return r.track(p)
}

// track opens a fed/delegation span for p on the root's trace lane and
// wraps p.respond so the span closes with the final response code,
// whichever of the answer / negative / servfail paths fires it — the
// span therefore covers the whole resolution including spills and
// Moved-chasing, not just the first ask.
func (r *fedRoot) track(p *pendingResolve) *pendingResolve {
	tr := r.f.Cfg.Tracer
	if tr == nil {
		return p
	}
	sp := tr.Begin(0, "fed", "delegation",
		obs.Str("name", p.name), obs.Num("cands", int64(len(p.cands))))
	inner := p.respond
	p.respond = func(m *dns.Message) {
		tr.End(sp, obs.Num("rcode", int64(m.RCode)))
		inner(m)
	}
	return p
}

// delegate parks the query and asks the current candidate cluster,
// skipping candidates that left the federation since the scan.
func (r *fedRoot) delegate(p *pendingResolve) {
	for p.idx < len(p.cands) {
		if m := r.f.member(p.cands[p.idx]); m != nil && !m.Left {
			break
		}
		p.idx++
	}
	if p.idx >= len(p.cands) {
		r.cacheNegative(p.name)
		r.NXDomains++
		p.respond(r.negative(p.query))
		return
	}
	r.Delegations++
	r.send(p, p.cands[p.idx], fedOpResolve, nil)
}

// send files p under a fresh qid, puts its datagram — [op, qid:4, args,
// name] — on the wire to cluster to, and arms the retransmit.
// Retransmits resend the identical datagram under the same qid — the
// agent side is idempotent (a duplicate resolve re-answers from the
// directory like any repeated client query; a duplicate reply finds no
// pending row and is dropped).
func (r *fedRoot) send(p *pendingResolve, to int, op byte, args []byte) {
	r.f.eng.Cancel(p.timer)
	p.asked, p.qid, p.tries = to, r.nextQID, 1
	r.nextQID++
	r.pending[p.qid] = p
	p.wire = binary.BigEndian.AppendUint32(append(p.buf[:0], op), p.qid)
	p.wire = append(append(p.wire, args...), p.name...)
	r.mgmt.SendUDP(agentMgmtIP(to), fedPort, fedPort, p.wire)
	p.arm()
}

// arm schedules p's next timeout: the wait after its latest send.
func (p *pendingResolve) arm() {
	wait, more := p.r.retx.Next(p.tries-1, nil)
	p.timer, p.more = p.r.f.eng.After(wait, p.timeout), more
}

// onTimeout retransmits p's datagram. When the budget is gone the query
// answers SERVFAIL — and pointedly does NOT cache a negative: an
// unreachable cluster says nothing about whether the name exists, and a
// poisoned negative cache would keep refusing the name for a whole
// epoch after the partition heals.
func (p *pendingResolve) onTimeout() {
	r := p.r
	if r.pending[p.qid] != p {
		return // answered (or failed over) while the timer was in flight
	}
	if !p.more {
		delete(r.pending, p.qid)
		r.DelegTimeouts++
		r.ServFails++
		if tr := r.f.Cfg.Tracer; tr != nil {
			tr.Instant(0, "fed", "deleg-timeout",
				obs.Str("name", p.name), obs.Num("cluster", int64(p.asked)))
		}
		p.respond(r.servfail(p.query))
		return
	}
	p.tries++
	r.DelegRetx++
	if tr := r.f.Cfg.Tracer; tr != nil {
		tr.Instant(0, "fed", "deleg-retx",
			obs.Str("name", p.name), obs.Num("cluster", int64(p.asked)), obs.Num("try", int64(p.tries)))
	}
	r.mgmt.SendUDP(agentMgmtIP(p.asked), fedPort, fedPort, p.wire)
	p.arm()
}

// failPendingFor sweeps the parked queries waiting on a removed member:
// resolves move on to their next live candidate (or answer negative);
// spills waiting on the departed cluster answer SERVFAIL. Sorted qid
// order keeps the sweep deterministic.
func (r *fedRoot) failPendingFor(cid int) {
	qids := make([]int, 0, len(r.pending))
	for qid, p := range r.pending {
		if p.asked == cid {
			qids = append(qids, int(qid))
		}
	}
	sort.Ints(qids)
	for _, qid := range qids {
		p := r.pending[uint32(qid)]
		delete(r.pending, uint32(qid))
		r.f.eng.Cancel(p.timer)
		if p.spillTo >= 0 {
			// The refusing cluster vanished mid-spill; the service's
			// fate is unknown, so refuse rather than guess.
			p.spillTo = -1
			r.ServFails++
			p.respond(r.servfail(p.query))
			continue
		}
		p.idx++
		r.delegate(p) // answers negative itself when no candidate is left
	}
}

func (r *fedRoot) cacheDelegation(name string, cid int) {
	if len(r.deleg) < maxFedCacheEntries {
		r.deleg[name] = delegEntry{cluster: cid, epoch: r.srv.Epoch}
	}
}

func (r *fedRoot) cacheNegative(name string) {
	if len(r.neg) < maxFedCacheEntries {
		r.neg[name] = r.srv.Epoch
	}
}

// negative renders the root's NXDomain (SOA in authority, like any
// authoritative miss).
func (r *fedRoot) negative(query *dns.Message) *dns.Message {
	resp := &dns.Message{ID: query.ID, Response: true, Authoritative: true,
		RecursionDesired: query.RecursionDesired,
		Questions:        query.Questions, RCode: dns.RCodeNXDomain}
	resp.Authority = append(resp.Authority, r.zone.SOA())
	return resp
}

// servfail renders the refusal a capacity-exhausted federation returns.
func (r *fedRoot) servfail(query *dns.Message) *dns.Message {
	return &dns.Message{ID: query.ID, Response: true,
		RecursionDesired: query.RecursionDesired,
		Questions:        query.Questions, RCode: dns.RCodeServFail}
}

// answer renders the delegated A answer plus the owning cluster's NS
// delegation records — the referral a resolver could chase directly.
func (r *fedRoot) answer(p *pendingResolve, cid int, ip netstack.IP, ttl uint32) *dns.Message {
	if ttl == 0 {
		ttl = 10
	}
	m := r.f.members[cid]
	return &dns.Message{ID: p.query.ID, Response: true,
		RecursionDesired: p.query.RecursionDesired,
		Questions:        p.query.Questions,
		Answers:          []dns.RR{{Name: p.name, Type: dns.TypeA, Class: dns.ClassIN, TTL: ttl, A: ip}},
		Authority:        m.referral, Additional: m.glue}
}

// recv handles one management datagram from a member agent.
func (r *fedRoot) recv(src netstack.IP, _ uint16, payload []byte) {
	if len(payload) < 1 {
		return
	}
	switch payload[0] {
	case fedOpSummary:
		if len(payload) != 2+summaryWireLen {
			return
		}
		s, err := DecodeSummary(payload[2:])
		if err != nil {
			return
		}
		r.applySummary(s, payload[1] == 1)
	case fedOpResolveReply:
		if len(payload) < 16 {
			return
		}
		qid := getU32(payload[1:5])
		p, ok := r.pending[qid]
		if !ok {
			return
		}
		delete(r.pending, qid)
		r.f.eng.Cancel(p.timer)
		status := payload[5]
		ip := netstack.IP{payload[6], payload[7], payload[8], payload[9]}
		extra := uint16(payload[10])<<8 | uint16(payload[11])
		ttl := getU32(payload[12:16])
		r.resolved(p, status, ip, extra, ttl)
	case fedOpSpillReply:
		if len(payload) < 6 {
			return
		}
		qid := getU32(payload[1:5])
		p, ok := r.pending[qid]
		if !ok {
			return
		}
		delete(r.pending, qid)
		r.f.eng.Cancel(p.timer)
		if payload[5] == 1 && p.spillTo >= 0 {
			// The service moved; re-delegate the waiting query to its
			// new home.
			r.cacheDelegation(p.name, p.spillTo)
			p.only(p.spillTo)
			p.hops++
			p.spillTo = -1
			r.delegate(p)
			return
		}
		r.ServFails++
		p.respond(r.servfail(p.query))
	}
}

// resolved handles one delegation's authoritative reply.
func (r *fedRoot) resolved(p *pendingResolve, status byte, ip netstack.IP, extra uint16, ttl uint32) {
	cid := p.cands[p.idx]
	switch status {
	case fedStatusOK:
		r.cacheDelegation(p.name, cid)
		p.respond(r.answer(p, cid, ip, ttl))
	case fedStatusMoved:
		// The cluster shed/spilled this service; chase the new home
		// (bounded — a moved chain cannot ping-pong forever).
		if p.hops >= 3 {
			r.ServFails++
			p.respond(r.servfail(p.query))
			return
		}
		p.hops++
		newHome := int(extra)
		if m := r.f.member(newHome); m == nil || m.Left {
			r.ServFails++
			p.respond(r.servfail(p.query))
			return
		}
		r.cacheDelegation(p.name, newHome)
		p.only(newHome)
		r.delegate(p)
	case fedStatusNXDomain:
		// Bloom false positive (or a stale cache hop): try the next
		// candidate; none left means the name is nowhere.
		p.idx++
		if p.idx < len(p.cands) {
			r.delegate(p)
			return
		}
		r.cacheNegative(p.name)
		r.NXDomains++
		p.respond(r.negative(p.query))
	case fedStatusServFail:
		// Admission refused cluster-wide. The inter-cluster policy
		// spills the service to the least-loaded cluster and re-asks —
		// one hop, once per query.
		if r.f.Cfg.SpillOnRefuse && p.spillTo < 0 && p.hops < 3 {
			if dst := r.f.spillTarget(cid); dst != nil {
				p.spillTo = dst.ID
				r.spill(p, cid)
				return
			}
		}
		r.ServFails++
		p.respond(r.servfail(p.query))
	default:
		r.ServFails++
		p.respond(r.servfail(p.query))
	}
}

// spill asks the refusing cluster to hand the service to p.spillTo.
// The command rides the same retransmit machinery as a resolve: the
// spill is idempotent at the agent (a duplicate finds the name already
// moved and reports failure, which the root answers SERVFAIL — safe,
// never wrong).
func (r *fedRoot) spill(p *pendingResolve, from int) {
	r.send(p, from, fedOpSpill, []byte{byte(p.spillTo >> 8), byte(p.spillTo)})
}

// applySummary merges one pushed row into the summary table. An epoch
// move means the member's directory changed: every cached delegation
// and negative answer may be stale, so the root epoch bumps (wholesale,
// exactly like dns.Server's own answer cache).
func (r *fedRoot) applySummary(s Summary, periodic bool) {
	m := r.f.member(s.Cluster)
	if m == nil || m.Left {
		return
	}
	row := r.summaries[s.Cluster]
	if row == nil || row.Epoch != s.Epoch {
		r.bumpEpoch()
	}
	if row == nil {
		row = new(Summary)
		r.summaries[s.Cluster] = row
	}
	*row = s
	if periodic {
		r.checkSkew(s.Cluster)
	}
}

// checkSkew runs the sustained-skew detector after a periodic push from
// cluster `from`: when the same cluster stays hottest — above
// SkewMinRate, with the coldest cluster at or below SkewRatio of it —
// for SkewRounds consecutive rounds, the root commands a shed from the
// hottest to the coldest cluster, with no operator in the loop.
func (r *fedRoot) checkSkew(from int) {
	if r.f.Cfg.SkewMinRate <= 0 {
		return
	}
	hot, cold := -1, -1
	var hotLoad, coldLoad uint32
	for _, m := range r.f.members {
		s := r.summaries[m.ID]
		if s == nil || m.Left {
			continue
		}
		if hot < 0 || s.LoadMilli > hotLoad {
			hot, hotLoad = m.ID, s.LoadMilli
		}
		if cold < 0 || s.LoadMilli < coldLoad {
			cold, coldLoad = m.ID, s.LoadMilli
		}
	}
	if hot < 0 || cold < 0 || hot == cold {
		return
	}
	skewed := float64(hotLoad)/1000 >= r.f.Cfg.SkewMinRate &&
		float64(coldLoad) <= r.f.Cfg.SkewRatio*float64(hotLoad)
	if !skewed {
		r.hotID, r.hotStreak = -1, 0
		return
	}
	if hot != r.hotID {
		r.hotID, r.hotStreak = hot, 0
	}
	if from != hot {
		return // one streak tick per round, counted on the hot row's push
	}
	r.hotStreak++
	if r.hotStreak < r.f.Cfg.SkewRounds {
		return
	}
	r.hotStreak = 0
	r.orderShed(hot, cold, r.f.Cfg.ShedBatch)
}

// orderShed sends cluster hot's agent the command to move batch services
// to cluster cold — the detector's and the operator's one datagram.
func (r *fedRoot) orderShed(hot, cold, batch int) {
	r.f.Sheds++
	if tr := r.f.Cfg.Tracer; tr != nil {
		tr.Instant(0, "fed", "shed",
			obs.Num("hot", int64(hot)), obs.Num("cold", int64(cold)), obs.Num("batch", int64(batch)))
	}
	buf := []byte{fedOpShed, byte(cold >> 8), byte(cold), byte(batch)}
	r.mgmt.SendUDP(agentMgmtIP(hot), fedPort, fedPort, buf)
}
