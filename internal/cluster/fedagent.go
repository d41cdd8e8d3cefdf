package cluster

import (
	"encoding/binary"
	"fmt"
	"sort"

	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

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
	pushEv   sim.Event // the periodic push; the agent is its sim.Handler
	// pushPending coalesces change-driven pushes within one link delay.
	pushPending bool
	stopped     bool
}

func newFedAgent(f *Federation, m *FedMember) *fedAgent {
	a := &fedAgent{f: f, m: m}
	a.nic = netsim.NewNIC(f.eng, fmt.Sprintf("fed%d", m.ID), netsim.MACFor(0xB000+m.ID))
	f.fedNet.ConnectNIC(a.nic, fedLinkLatency, fedBitsPerSec)
	if f.Cfg.wan != nil {
		f.Cfg.wan.Apply(a.nic.Link(), int64(0xFED0+m.ID))
	}
	a.copier = newCopier(netstack.NewHost(f.eng, fmt.Sprintf("fed%d", m.ID), a.nic, agentMgmtIP(m.ID), netstack.Dom0Profile()), fedPort, fedOpXferChunk)
	m.Cluster.onDirChange = a.dirChanged
	return a
}

func (a *fedAgent) startPushing() {
	if a.f.Cfg.summaryEvery <= 0 || a.stopped {
		return
	}
	a.pushEv = a.f.eng.AfterHandler(a.f.Cfg.summaryEvery, a)
}

// Fire is the periodic push.
func (a *fedAgent) Fire() {
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
		a.resolve(getU32(payload[1:5]), string(payload[5:]))
	case fedOpShed:
		if len(payload) < 4 {
			return
		}
		a.shed(int(payload[1])<<8|int(payload[2]), int(payload[3]))
	case fedOpSpill:
		if len(payload) < 8 {
			return
		}
		a.spill(getU32(payload[1:5]), int(payload[5])<<8|int(payload[6]), string(payload[7:]))
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
	ok := byte(0)
	if a.spillNow(dns.CanonicalName(name), target) {
		ok = 1
	}
	buf := binary.BigEndian.AppendUint32(append(make([]byte, 0, 8), fedOpSpillReply), qid)
	a.host.SendUDP(rootMgmtIP, fedPort, fedPort, append(buf, ok))
}

// lane is the trace lane federation-level events about this member
// cluster land on: its board-0 lane (boards occupy (ID+1)*100 + i).
func (a *fedAgent) lane() int {
	return a.m.Cluster.Cfg.traceTIDBase
}

func (a *fedAgent) spillNow(name string, target int) bool {
	c := a.m.Cluster
	e := c.dir.Lookup(name)
	if e == nil || e.moved {
		return false
	}
	dst := a.f.live(target)
	if dst == nil || dst == a.m {
		return false
	}
	if resp := dst.Cluster.API().Transfer(a.f.transferRequest(e, dst)); resp.Err != nil {
		return false
	}
	a.f.Spills++
	if tr := a.f.Cfg.tracer; tr != nil {
		tr.Instant(a.lane(), "fed", "spill",
			obs.Str("svc", name), obs.Num("src", int64(a.m.ID)), obs.Num("dst", int64(dst.ID)))
	}
	c.markMoved(e, dst.ID)
	c.Unregister(name) // no live replica exists — admission just refused
	return true
}

// shed moves up to batch of this cluster's hottest warm services to the
// target cluster — the skew-triggered cross-cluster rebalance. Each
// move is a live migration: checkpoint here, copy across the federation
// link, restore there via the typed Transfer verb, then drain and
// retire the local registration.
func (a *fedAgent) shed(target, batch int) {
	dst := a.f.live(target)
	if dst == nil || a.m.Left {
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

// transferOut live-migrates one replica of e to cluster dst: the
// federation transfer leg, a move with no destination slot here.
// Make-before-break — the source serves until the destination's restore
// completes, then drains for the answer-guard window before the
// registration retires.
func (a *fedAgent) transferOut(e *Entry, p *Placement, dst *FedMember) {
	m := &move{c: a.m.Cluster, e: e, src: p, done: func(bool) {}}
	if !m.start() {
		return
	}
	if tr := a.f.Cfg.tracer; tr != nil {
		m.span = tr.Begin(a.lane(), "fed", "transfer",
			obs.Str("svc", e.Name), obs.Num("state_mib", int64(m.cp.StateMiB)),
			obs.Num("dst", int64(dst.ID)))
	}
	abort := func() {
		m.release()
		a.f.CrossAborts++
		a.f.Cfg.tracer.End(m.span, obs.Str("status", "aborted"))
		m.done(false)
	}
	a.fedCopy(dst.ID, m.cp.StateMiB, func(ok bool) {
		// The chunk exchange died (federation path partitioned, or the
		// destination agent went silent), the source changed under the
		// copy, or the destination departed mid-transfer and the copy has
		// nowhere to land: the source keeps serving untouched.
		if !ok || a.m.Left || e.moved || !m.src.movable() || dst.Left {
			abort()
			return
		}
		req := a.f.transferRequest(e, dst)
		// A disk-resident source sheds its checkpoint straight onto the
		// destination's disk tier — no paging in on either side.
		req.Checkpoint, req.ToDisk = m.cp, p.Svc.State == core.StateColdDisk
		req.OnReady = func(err error) {
			if err != nil {
				// The destination lost its headroom during the restore;
				// roll its adoption back and keep serving here.
				dst.Cluster.Unregister(e.Name)
				abort()
				return
			}
			a.f.CrossMigrations++
			a.f.Cfg.tracer.End(m.span, obs.Str("status", "ready"))
			a.retire(m, dst.ID)
		}
		if resp := dst.Cluster.API().Transfer(req); resp.Err != nil {
			abort()
		}
	})
}

// retire switches a shed service over to its new home: resolutions
// redirect immediately (moved marking + summary push), while the local
// replica drains for the answer-guard window before the registration
// is unregistered — a client answered with the old address moments ago
// can still connect.
func (a *fedAgent) retire(m *move, newHome int) {
	c, e := a.m.Cluster, m.e
	c.markMoved(e, newHome)
	m.switchover()
	if tr := a.f.Cfg.tracer; tr != nil {
		tr.Instant(a.lane(), "fed", "switchover",
			obs.Str("svc", e.Name), obs.Num("dst", int64(newHome)))
	}
	a.dirChanged()
	a.f.eng.After(answerGuard, func() {
		m.retire()
		// Only retire the entry this drain belongs to: the name may have
		// been re-adopted (a spill back) since, and its fresh
		// registration must survive.
		if c.dir.entries[e.Name] == e {
			c.Unregister(e.Name)
		}
		m.done(true)
	})
}
