package cluster

import (
	"fmt"
	"sort"
	"time"

	"jitsu/internal/core"
	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/power"
	"jitsu/internal/sim"
)

// The membership layer is a SWIM-style gossip protocol running over a
// dedicated management network (one more netsim bridge): every board
// carries a gossip agent with its own local view, agents probe each
// other and piggyback membership deltas on every message, and the
// board-0 directory stays authoritative — it acts on *its* agent's view
// transitions (join/leave/suspect/confirm), exactly the split the
// MDS2-style directory literature argues for: membership churns in the
// gossip substrate while one summary view drives placement.

// MemberState is one board's position in the membership lifecycle.
type MemberState uint8

// Membership states. Joining is directory-local (the board exists but
// its join has not reached board 0); the rest travel in gossip updates.
const (
	MemberJoining MemberState = iota
	MemberAlive
	MemberSuspect
	MemberDead // confirmed failed (suspect timeout expired unrefuted)
	MemberLeft // left gracefully
)

func (s MemberState) String() string {
	switch s {
	case MemberJoining:
		return "joining"
	case MemberAlive:
		return "alive"
	case MemberSuspect:
		return "suspect"
	case MemberDead:
		return "dead"
	default:
		return "left"
	}
}

// Member is one board as the directory sees it: the board itself plus
// its membership state. The State field is authoritative for placement —
// it is driven by board 0's gossip agent (and synchronously by graceful
// Leave), never written by the other agents' views.
type Member struct {
	ID    int
	Board *core.Board
	// Model is the board's power model (PowerAware placement).
	Model *power.Board
	// State is the directory's view of this member.
	State MemberState
	// Leaving marks a graceful departure in progress: warm replicas are
	// being migrated off and no new placements land here.
	Leaving bool

	agent *agent
	// baseDomains is the board's domain count before any guest ran.
	baseDomains int
}

// Placeable reports whether the scheduler may put new replicas here.
// Suspects keep serving their warm replicas (SWIM suspicion is often a
// dropped probe, not a dead board) but receive nothing new.
func (m *Member) Placeable() bool {
	return m.State == MemberAlive && !m.Leaving
}

// Gossip wire protocol: one UDP datagram per message on the management
// network, [type, fromID:2, seq:4, n, n×(id:2, state:1, inc:4)].
const (
	gossipPort = 7946

	msgPing      = 1 // probe; echoed as ack with the same seq
	msgAck       = 2
	msgJoin      = 3 // new member announcing itself to the seed (board 0)
	msgJoinReply = 4 // seed's full view back to the joiner
	msgGossip    = 5 // pure update carrier (leave blasts, refutations)
	// The SWIM indirection pair: a ping-req asks a relay to probe the
	// target on the origin's behalf (target id appended after the
	// updates block); the relay answers the origin with a ping-req-ack
	// carrying the origin's seq when its own probe is acked.
	msgPingReq    = 6
	msgPingReqAck = 7

	// maxPiggyback bounds updates per message; retransmits is each
	// rumor's dissemination budget (≈λ·log n for edge-sized clusters).
	maxPiggyback = 8
	retransmits  = 4
)

// mgmtIP is a member's address on the management network.
func mgmtIP(id int) netstack.IP { return netstack.IPv4(10, 255, 0, byte(10+id)) }

// gossipUpdate is one membership delta: member id moved to state at
// incarnation inc. Incarnations order rumors about the same member —
// only the member itself bumps its incarnation (to refute suspicion).
type gossipUpdate struct {
	ID    int
	State MemberState
	Inc   uint32
}

// memberInfo is one entry of an agent's local view.
type memberInfo struct {
	State MemberState
	Inc   uint32
}

// agent is one board's gossip participant.
type agent struct {
	c    *Cluster
	self int
	nic  *netsim.NIC
	// copier is this board's checkpoint-copy endpoint (port 7947) and
	// owns host, the agent's management-network stack (xfer.go).
	copier
	// view is this agent's local membership map (includes self).
	view map[int]memberInfo
	// out is the rumor outbox: updates still owed piggyback retransmits.
	out []outboundUpdate
	// inc is the agent's own incarnation, bumped to refute suspicion.
	inc uint32
	// acks holds the pings awaiting an ack, the agent's probes and the
	// ones it relays for a ping-req alike: one table, so one seq space.
	// spare keeps settled records for the next ping.
	acks    sim.Requests[*awaited]
	spare   []*awaited
	probe   sim.Backoff // a probe's wait, the indirect round, the wait after it
	probeEv sim.Event
	stopped bool
	// The agent's three scratch buffers, refilled in place by
	// probeCandidates, drain and sendTail. Nobody holds one across a
	// send: SendUDP copies the datagram into its frame before it returns
	// (loopback included), and indirectProbe, which sends while it still
	// needs the candidates, copies them out first.
	cands []int
	ups   []gossipUpdate
	wire  []byte
}

// awaited is one ping awaiting its target's ack: the agent's own probe
// (origin -1), or one it sent for a ping-req's origin, whose seq the ack
// is forwarded under.
type awaited struct {
	a      *agent
	req    sim.Request[*awaited]
	target int
	origin int
	seq    uint32
}

type outboundUpdate struct {
	u      gossipUpdate
	budget int
}

// newAgent wires a member onto the management network. The view starts
// empty; bootstrap (initial members) or join (later arrivals) fills it.
func newAgent(c *Cluster, m *Member) *agent {
	a := &agent{
		c: c, self: m.ID,
		view:  make(map[int]memberInfo),
		inc:   1,
		probe: sim.Backoff{Initial: c.Cfg.probeTimeout, Factor: 1, Retries: 1},
	}
	a.nic = netsim.NewNIC(c.eng, fmt.Sprintf("mgmt%d", m.ID), netsim.MACFor(0xA000+m.ID))
	c.mgmt.ConnectNIC(a.nic, 50*time.Microsecond, c.Cfg.mgmtBitsPerSec)
	a.copier = newCopier(netstack.NewHost(c.eng, fmt.Sprintf("mgmt%d", m.ID), a.nic, mgmtIP(m.ID), netstack.Dom0Profile()), xferPort, xferOpChunk)
	if err := a.host.BindUDP(gossipPort, a.recv); err != nil {
		panic(fmt.Sprintf("cluster: gossip bind: %v", err))
	}
	if err := a.host.BindUDP(xferPort, a.copier.recv); err != nil {
		panic(fmt.Sprintf("cluster: xfer bind: %v", err))
	}
	return a
}

// bootstrap seeds the view with the construction-time member set: those
// boards know each other without a join round-trip.
func (a *agent) bootstrap(members []*Member) {
	for _, m := range members {
		a.view[m.ID] = memberInfo{State: MemberAlive, Inc: 1}
	}
}

// join announces this agent to the seed (board 0). The seed applies the
// Alive update, gossips it onward, and replies with its full view.
func (a *agent) join() {
	a.view[a.self] = memberInfo{State: MemberAlive, Inc: a.inc}
	a.send(0, msgJoin, 0, []gossipUpdate{{ID: a.self, State: MemberAlive, Inc: a.inc}})
}

// startProbing arms the periodic failure-detector tick. With
// Cfg.probeEvery == 0 the detector is passive (join/leave still gossip,
// but nothing keeps the event queue alive), which is what lets
// Engine.Run drain in the non-churn experiments.
func (a *agent) startProbing() {
	if a.c.Cfg.probeEvery <= 0 || a.stopped {
		return
	}
	a.probeEv = a.c.eng.AfterHandler(a.c.Cfg.probeEvery, a)
}

// stop ends the agent for good, letting go of the pings in flight.
func (a *agent) stop() {
	a.stopped = true
	a.c.eng.Cancel(a.probeEv)
	a.acks.Abort(nil, nil)
}

// ping sends a ping to target under a fresh seq and returns its record.
func (a *agent) ping(target, origin int, seq uint32, extra []gossipUpdate) *awaited {
	var w *awaited
	if n := len(a.spare); n > 0 {
		w, a.spare = a.spare[n-1], a.spare[:n-1]
	} else {
		w = &awaited{a: a}
	}
	w.target, w.origin, w.seq = target, origin, seq
	a.send(target, msgPing, a.acks.Open(&w.req, w), extra)
	return w
}

// done returns a settled record to the spares.
func (w *awaited) done() { w.a.spare = append(w.a.spare, w) }

// Fire is the detector's tick: it probes one random live-or-suspect
// peer; no ack within probeTimeout marks it suspect in this agent's view.
func (a *agent) Fire() {
	if a.stopped {
		return
	}
	defer a.startProbing()
	targets := a.probeCandidates()
	if len(targets) == 0 {
		return
	}
	t := targets[a.c.eng.Rand().Intn(len(targets))]
	a.c.Probes++
	if tr := a.c.tracer(); tr != nil {
		tr.Instant(a.c.tidFor(a.self), "gossip", "probe", obs.Num("peer", int64(t)))
	}
	// A ping to a suspect always carries the suspicion, whatever the
	// piggyback budget — the target can only refute what it has heard.
	var extra []gossipUpdate
	if info := a.view[t]; info.State == MemberSuspect {
		extra = []gossipUpdate{{ID: t, State: MemberSuspect, Inc: info.Inc}}
	}
	a.ping(t, -1, 0, extra).req.Arm(a.c.eng, &a.probe, 0)
}

// Resend is a probe's wait running out unacknowledged: the indirect
// round, or straight to suspicion. (A relayed ping has no resend.)
func (w *awaited) Resend() {
	if !w.a.indirectProbe(w.target, w.req.ID()) {
		w.req.Settle()
		w.Expire()
	}
}

// Expire ends an unacknowledged ping: a probe's target turns suspect
// after the indirect round; a relayed ping is let go.
func (w *awaited) Expire() {
	if w.origin < 0 {
		w.a.suspect(w.target)
	}
	w.done()
}

// indirectProbe runs the SWIM ping-req round: up to Cfg.indirectProbes
// other members are asked to probe target on this agent's behalf; only
// if none of them answers within another probeTimeout (the probe's
// second wait) does the target turn suspect. It reports false when
// indirection is disabled or no relay exists, in which case the caller
// suspects immediately.
func (a *agent) indirectProbe(target int, seq uint32) bool {
	k := a.c.Cfg.indirectProbes
	if k <= 0 {
		return false
	}
	var relays []int
	for _, id := range a.probeCandidates() {
		if id != target {
			relays = append(relays, id)
		}
	}
	if len(relays) == 0 {
		return false
	}
	// Deterministic fan-out: shuffle with the engine RNG, take k.
	rng := a.c.eng.Rand()
	rng.Shuffle(len(relays), func(i, j int) { relays[i], relays[j] = relays[j], relays[i] })
	if len(relays) > k {
		relays = relays[:k]
	}
	tail := []byte{byte(target >> 8), byte(target)}
	for _, r := range relays {
		a.c.PingReqs++
		a.sendTail(r, msgPingReq, seq, nil, tail)
	}
	if tr := a.c.tracer(); tr != nil {
		tr.Instant(a.c.tidFor(a.self), "gossip", "ping-req",
			obs.Num("target", int64(target)), obs.Num("relays", int64(len(relays))))
	}
	return true
}

// probeCandidates returns the sorted ids this agent may probe: everyone
// it believes alive or suspect, except itself. Sorting keeps the RNG
// draw deterministic regardless of map iteration order. The result is
// a.cands, good until the next call.
func (a *agent) probeCandidates() []int {
	a.cands = a.cands[:0]
	for id, info := range a.view {
		if id == a.self {
			continue
		}
		if info.State == MemberAlive || info.State == MemberSuspect {
			a.cands = append(a.cands, id)
		}
	}
	sort.Ints(a.cands)
	return a.cands
}

// suspect starts the SWIM suspicion protocol for id in this view.
func (a *agent) suspect(id int) {
	info, ok := a.view[id]
	if !ok || info.State != MemberAlive {
		return
	}
	a.apply(gossipUpdate{ID: id, State: MemberSuspect, Inc: info.Inc})
}

// armConfirm schedules the suspect→confirm transition: if the suspicion
// at this incarnation is not refuted within suspectTimeout, the member
// is declared dead.
func (a *agent) armConfirm(id int, inc uint32) {
	a.c.eng.After(a.c.Cfg.suspectTimeout, func() {
		if a.stopped {
			return
		}
		if cur, ok := a.view[id]; ok && cur.State == MemberSuspect && cur.Inc == inc {
			a.apply(gossipUpdate{ID: id, State: MemberDead, Inc: inc})
		}
	})
}

// leave broadcasts this member's graceful departure to every peer it
// believes alive and stops participating. Called after the directory has
// migrated the member's warm replicas off.
func (a *agent) leave() {
	a.inc++
	if tr := a.c.tracer(); tr != nil {
		tr.Instant(a.c.tidFor(a.self), "gossip", "leave", obs.Num("inc", int64(a.inc)))
	}
	u := gossipUpdate{ID: a.self, State: MemberLeft, Inc: a.inc}
	a.view[a.self] = memberInfo{State: MemberLeft, Inc: a.inc}
	for _, id := range a.probeCandidates() {
		a.send(id, msgGossip, 0, []gossipUpdate{u})
	}
	a.stop()
}

// apply merges one update into the view per the SWIM rules: higher
// incarnations win, suspect beats alive at the same incarnation, dead
// and left are final, and rumors about self are refuted by bumping the
// incarnation. Accepted updates are re-gossiped, and — on the board-0
// agent only — reported to the directory.
func (a *agent) apply(u gossipUpdate) {
	if u.ID == a.self {
		if (u.State == MemberSuspect || u.State == MemberDead) && u.Inc >= a.inc {
			// Refute: I am alive, and I outrank the rumor now.
			a.inc = u.Inc + 1
			a.view[a.self] = memberInfo{State: MemberAlive, Inc: a.inc}
			a.enqueue(gossipUpdate{ID: a.self, State: MemberAlive, Inc: a.inc})
			a.c.Refutes++
			if tr := a.c.tracer(); tr != nil {
				tr.Instant(a.c.tidFor(a.self), "gossip", "refute", obs.Num("inc", int64(a.inc)))
			}
		}
		return
	}
	cur, known := a.view[u.ID]
	if known && (cur.State == MemberDead || cur.State == MemberLeft) {
		return // terminal states never un-happen
	}
	accept := false
	switch u.State {
	case MemberAlive:
		accept = !known || u.Inc > cur.Inc
	case MemberSuspect:
		accept = !known ||
			(cur.State == MemberAlive && u.Inc >= cur.Inc) ||
			(cur.State == MemberSuspect && u.Inc > cur.Inc)
	case MemberDead, MemberLeft:
		accept = true
	}
	if !accept {
		return
	}
	a.view[u.ID] = memberInfo{State: u.State, Inc: u.Inc}
	a.enqueue(u)
	if u.State == MemberSuspect {
		a.c.Suspects++
		if tr := a.c.tracer(); tr != nil {
			tr.Instant(a.c.tidFor(a.self), "gossip", "suspect",
				obs.Num("member", int64(u.ID)), obs.Num("inc", int64(u.Inc)))
		}
		a.armConfirm(u.ID, u.Inc)
	}
	if a.self == 0 {
		a.c.directoryObserve(u.ID, u.State)
	}
}

// enqueue adds a rumor to the piggyback outbox.
func (a *agent) enqueue(u gossipUpdate) {
	a.out = append(a.out, outboundUpdate{u: u, budget: retransmits})
}

// drain takes up to maxPiggyback rumors from the outbox (decrementing
// their budgets) and appends any caller-supplied updates. The result is
// a.ups, good until the next call.
func (a *agent) drain(extra []gossipUpdate) []gossipUpdate {
	a.ups = a.ups[:0]
	keep := a.out[:0]
	for _, ou := range a.out {
		if len(a.ups) < maxPiggyback {
			a.ups = append(a.ups, ou.u)
			ou.budget--
		}
		if ou.budget > 0 {
			keep = append(keep, ou)
		}
	}
	a.out = keep
	a.ups = append(a.ups, extra...)
	return a.ups
}

// send encodes and transmits one gossip message to member id.
func (a *agent) send(id int, typ byte, seq uint32, extra []gossipUpdate) {
	a.sendTail(id, typ, seq, extra, nil)
}

// sendTail is send with trailing message-specific bytes after the
// updates block (the ping-req target id).
func (a *agent) sendTail(id int, typ byte, seq uint32, extra []gossipUpdate, tail []byte) {
	ups := a.drain(extra)
	buf := append(a.wire[:0], typ, byte(a.self>>8), byte(a.self),
		byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq), byte(len(ups)))
	for _, u := range ups {
		buf = append(buf, byte(u.ID>>8), byte(u.ID), byte(u.State),
			byte(u.Inc>>24), byte(u.Inc>>16), byte(u.Inc>>8), byte(u.Inc))
	}
	buf = append(buf, tail...)
	a.wire = buf
	a.host.SendUDP(mgmtIP(id), gossipPort, gossipPort, buf)
}

// fullView renders the whole view as updates, sorted for determinism.
func (a *agent) fullView() []gossipUpdate {
	ids := make([]int, 0, len(a.view))
	for id := range a.view {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]gossipUpdate, 0, len(ids))
	for _, id := range ids {
		info := a.view[id]
		out = append(out, gossipUpdate{ID: id, State: info.State, Inc: info.Inc})
	}
	return out
}

// recv handles one gossip datagram: apply the piggybacked updates, then
// react to the message type.
func (a *agent) recv(_ netstack.IP, _ uint16, payload []byte) {
	if a.stopped || len(payload) < 8 {
		return
	}
	typ := payload[0]
	from := int(payload[1])<<8 | int(payload[2])
	seq := uint32(payload[3])<<24 | uint32(payload[4])<<16 | uint32(payload[5])<<8 | uint32(payload[6])
	n := int(payload[7])
	if len(payload) < 8+7*n {
		return
	}
	for i := 0; i < n; i++ {
		off := 8 + 7*i
		a.apply(gossipUpdate{
			ID:    int(payload[off])<<8 | int(payload[off+1]),
			State: MemberState(payload[off+2]),
			Inc: uint32(payload[off+3])<<24 | uint32(payload[off+4])<<16 |
				uint32(payload[off+5])<<8 | uint32(payload[off+6]),
		})
	}
	switch typ {
	case msgPing:
		a.send(from, msgAck, seq, nil)
	case msgAck:
		// An ack settles a probe from its target, and a relayed ping
		// from anyone: that ack is forwarded to the origin under the
		// origin's sequence number.
		if w := a.acks.Get(seq); w != nil && (w.origin >= 0 || w.target == from) {
			w.req.Settle()
			if w.origin >= 0 {
				a.send(w.origin, msgPingReqAck, w.seq, nil)
			}
			w.done()
		}
	case msgPingReq:
		off := 8 + 7*n
		if len(payload) < off+2 {
			return
		}
		target := int(payload[off])<<8 | int(payload[off+1])
		if target == a.self {
			// Degenerate: we are the target; answer directly.
			a.send(from, msgPingReqAck, seq, nil)
			return
		}
		// The relayed ping expires, so probes of dead members don't
		// leak it.
		a.ping(target, from, seq, nil).req.Arm(a.c.eng, nil, a.c.Cfg.probeTimeout)
	case msgPingReqAck:
		if w := a.acks.Get(seq); w != nil && w.origin < 0 {
			w.req.Settle()
			w.done()
			a.c.IndirectAcks++
			if tr := a.c.tracer(); tr != nil {
				tr.Instant(a.c.tidFor(a.self), "gossip", "indirect-ack", obs.Num("relay", int64(from)))
			}
		}
	case msgJoin:
		a.send(from, msgJoinReply, 0, a.fullView())
	}
}

// ---- directory side ----

// directoryObserve is invoked by board 0's agent whenever its view
// changes: the single point where gossip becomes placement truth.
func (c *Cluster) directoryObserve(id int, s MemberState) {
	if id >= len(c.members) {
		return
	}
	m := c.members[id]
	switch s {
	case MemberAlive:
		if m.Leaving || m.State == MemberDead || m.State == MemberLeft {
			return
		}
		if m.State == MemberJoining {
			m.State = MemberAlive
			c.Joins++
			// A board arrived: placement answers may change, so no cached
			// DNS answer survives, and the pools may spread onto it.
			c.front().DNS.BumpEpoch()
			c.Pools.reconcileAll(nil)
		} else if m.State == MemberSuspect {
			m.State = MemberAlive // refuted
		}
	case MemberSuspect:
		if m.State == MemberAlive {
			m.State = MemberSuspect
		}
	case MemberDead:
		if m.State == MemberDead || m.State == MemberLeft {
			return
		}
		m.State = MemberDead
		c.Confirms++
		if tr := c.tracer(); tr != nil {
			tr.Instant(c.tidFor(0), "gossip", "confirm", obs.Num("member", int64(id)))
		}
		c.deregisterBoard(id)
	case MemberLeft:
		if m.State == MemberLeft || m.State == MemberDead {
			return
		}
		m.State = MemberLeft
		c.deregisterBoard(id)
	}
}

// deregisterBoard retires every replica slot on a departed board: live
// replicas are counted lost (graceful leaves already migrated or stopped
// them), the board's local directory drops the registrations (bumping
// its DNS epoch), and the cluster's answer state moves too. Idempotent.
func (c *Cluster) deregisterBoard(id int) {
	m := c.members[id]
	for e := range c.dir.walk {
		p := replicaOn(e, id)
		if p == nil {
			continue
		}
		if p.Svc.State.Resident() {
			c.Lost++
		}
		m.Board.Jitsu.Deregister(p.Svc)
		p.to(slotGone, nil)
		delete(c.dir.byIP, p.Svc.Cfg.IP)
	}
	c.front().DNS.BumpEpoch()
	c.Pools.reconcileAll(nil)
}

// Members reports the directory's membership view, ordered by board id.
func (c *Cluster) Members() []*Member { return c.members }

// MgmtLink returns board id's uplink to the management bridge — the
// interposition point hostile-network scenarios impair or partition.
// The board's NIC sits at the link's A end, so ImpairAtoB/PartitionAtoB
// affect what the board transmits (gossip acks, checkpoint chunks) and
// the BtoA direction what it hears.
func (c *Cluster) MgmtLink(id int) *netsim.Link {
	return c.members[id].agent.nic.Link()
}

// MgmtHost returns board id's management-plane endpoint — the host the
// gossip agent and checkpoint mover already share. A wire.Server bound
// here exposes the cluster control plane at mgmtIP(id) subject to the
// same link budget (and the same impairments) as every other
// management flow.
func (c *Cluster) MgmtHost(id int) *netstack.Host {
	return c.members[id].agent.host
}

// AttachMgmtHost connects a fresh operator endpoint to the management
// bridge at 10.255.0.lastOctet — the "remote console" a wire.Client
// dials the control plane from. Pick a lastOctet outside the board
// range (boards own 10+id).
func (c *Cluster) AttachMgmtHost(name string, lastOctet byte) *netstack.Host {
	nic := netsim.NewNIC(c.eng, name, netsim.MACFor(0xC000+int(lastOctet)))
	c.mgmt.ConnectNIC(nic, 50*time.Microsecond, c.Cfg.mgmtBitsPerSec)
	return netstack.NewHost(c.eng, name, nic, netstack.IPv4(10, 255, 0, lastOctet), netstack.Dom0Profile())
}

// StopMembership quiesces every gossip agent (probe timers cancelled) so
// Engine.Run can drain — used at the end of churn runs and by jitsud
// once its trace completes.
func (c *Cluster) StopMembership() {
	for _, m := range c.members {
		m.agent.stop()
	}
}
