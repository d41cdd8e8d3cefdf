package cluster

import (
	"encoding/binary"
	"fmt"

	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// The federation's root directory: the client-facing DNS server, its
// delegation over the management network, and the caches in front of
// both. Each of its three answers is written once: answer (the owner's
// A record and referral), nxdomain (no cluster owns the name) and
// refuse (SERVFAIL, never cached).

// maxFedCacheEntries bounds the root's delegation and negative caches;
// past the cap answers still resolve, just uncached.
const maxFedCacheEntries = 8192

// pendingResolve is one client query parked while the root delegates.
// It carries what a delegation needs — a lone candidate (a cache hit, a
// redirect), the datagram's buffer, its entry in the root's table — in
// itself, so a delegation allocates the row and nothing per try.
type pendingResolve struct {
	r       *fedRoot
	req     sim.Request[*pendingResolve]
	query   *dns.Message
	respond func(*dns.Message)
	name    string
	cands   []int
	one     [1]int // cands' array when there is just one (only)
	idx     int
	spillTo int // the spill's target while a spill is outstanding, else -1
	hops    int
	// asked is the cluster the outstanding datagram went to, so a
	// member removal can fail (or re-route) the queries waiting on it.
	asked int
	buf   [48]byte // the datagram's, when it fits
	// reply and ans are the answer's storage (answer): respond renders
	// it before it returns.
	reply dns.Message
	ans   [1]dns.RR
}

// only makes cid the query's single candidate.
func (p *pendingResolve) only(cid int) {
	p.one[0] = cid
	p.cands, p.idx = p.one[:], 0
}

// fedRoot is the federation's root directory: the client-facing DNS
// server whose InterceptAsync delegates over the management network,
// the summary table (the only authoritative state — one row per
// cluster), and the delegation/negative caches.
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
	// deleg maps a name to the cluster that answered it, and neg holds
	// the names no cluster owns. bumpEpoch clears both at once, so an
	// entry needs no stamp of its own.
	deleg map[string]int
	neg   map[string]struct{}
	// pending holds the delegations awaiting a member's reply, each
	// filed under the qid its datagram carries.
	pending sim.Requests[*pendingResolve]
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
		deleg:     make(map[string]int),
		neg:       make(map[string]struct{}),
		hotID:     -1,
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
// Epoch counter. It is the caches' only invalidation.
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

// interceptAsync is the root's resolution path: the delegation and
// negative caches, then a summary-table scan and a delegation over the
// management link.
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
	if cid, ok := r.deleg[name]; ok && r.f.live(cid) != nil {
		r.DelegHits++
		r.delegate(r.park(query, respond, name, nil, cid))
		return true
	}
	if _, ok := r.neg[name]; ok {
		r.NegHits++
		r.nxdomain(query, respond, name)
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
		r.nxdomain(query, respond, name)
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
	return r.track(p)
}

// track opens a fed/delegation span for p on the root's trace lane and
// wraps p.respond so the span closes with the final response code,
// whichever of answer, nxdomain or refuse fires it — the span therefore
// covers the whole resolution including spills and Moved-chasing, not
// just the first ask.
func (r *fedRoot) track(p *pendingResolve) *pendingResolve {
	tr := r.f.Cfg.tracer
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

// delegate asks p's current candidate; with none left the name is nowhere.
func (r *fedRoot) delegate(p *pendingResolve) {
	if !r.ask(p) {
		r.nxdomain(p.query, p.respond, p.name)
	}
}

// ask sends p to its current candidate cluster, skipping those that left
// the federation since the scan; it reports false when none is left.
func (r *fedRoot) ask(p *pendingResolve) bool {
	for p.idx < len(p.cands) && r.f.live(p.cands[p.idx]) == nil {
		p.idx++
	}
	if p.idx >= len(p.cands) {
		return false
	}
	r.Delegations++
	r.send(p, p.cands[p.idx])
	return true
}

// redirect makes cid the query's one candidate — the name's home moved
// there — remembers the delegation, and asks cid.
func (r *fedRoot) redirect(p *pendingResolve, cid int) {
	r.cacheDelegation(p.name, cid)
	p.only(cid)
	p.hops++
	r.delegate(p)
}

// send files p under a fresh qid, puts its resolve (or, while spillTo
// is set, its spill) on the wire to cluster to, and arms the retransmit.
// Retransmits resend the identical datagram under the same qid — the
// agent side is idempotent (a duplicate resolve re-answers from the
// directory like any repeated client query; a duplicate reply finds no
// pending row and is dropped).
func (r *fedRoot) send(p *pendingResolve, to int) {
	p.asked = to
	r.pending.Open(&p.req, p)
	r.mgmt.SendUDP(agentMgmtIP(to), fedPort, fedPort, p.datagram())
	p.req.Arm(r.f.eng, &r.f.Cfg.delegate, 0)
}

// datagram renders p's request, in buf when it fits: [op, qid:4, name],
// with the spill target's id:2 before the name for a spill. The same
// bytes each time, so a retransmit is an identical copy.
func (p *pendingResolve) datagram() []byte {
	if p.spillTo < 0 {
		return append(binary.BigEndian.AppendUint32(append(p.buf[:0], fedOpResolve), p.req.ID()), p.name...)
	}
	b := binary.BigEndian.AppendUint32(append(p.buf[:0], fedOpSpill), p.req.ID())
	return append(append(b, byte(p.spillTo>>8), byte(p.spillTo)), p.name...)
}

// Resend retransmits p's datagram after a timeout.
func (p *pendingResolve) Resend() {
	r := p.r
	r.DelegRetx++
	if tr := r.f.Cfg.tracer; tr != nil {
		tr.Instant(0, "fed", "deleg-retx",
			obs.Str("name", p.name), obs.Num("cluster", int64(p.asked)), obs.Num("try", int64(p.req.Sends())))
	}
	r.mgmt.SendUDP(agentMgmtIP(p.asked), fedPort, fedPort, p.datagram())
}

// Expire writes p off once the retry budget is gone: the query is
// refused — and pointedly NOT negative-cached: an unreachable cluster
// says nothing about whether the name exists, and a poisoned negative
// cache would keep refusing the name for a whole epoch after the
// partition heals.
func (p *pendingResolve) Expire() {
	r := p.r
	r.DelegTimeouts++
	if tr := r.f.Cfg.tracer; tr != nil {
		tr.Instant(0, "fed", "deleg-timeout",
			obs.Str("name", p.name), obs.Num("cluster", int64(p.asked)))
	}
	r.refuse(p)
}

// failPendingFor sweeps the parked queries waiting on a removed member,
// in qid order: resolves move on to their next live candidate. One with
// none left, and a spill, is refused uncached, like a delegation timeout:
// the member's names are being re-homed, so refuse rather than guess.
func (r *fedRoot) failPendingFor(cid int) {
	r.pending.Abort(func(p *pendingResolve) bool { return p.asked == cid }, func(p *pendingResolve) {
		p.idx++
		if p.spillTo >= 0 || !r.ask(p) {
			r.refuse(p)
		}
	})
}

func (r *fedRoot) cacheDelegation(name string, cid int) {
	if len(r.deleg) < maxFedCacheEntries {
		r.deleg[name] = cid
	}
}

// nxdomain answers that no cluster owns name — SOA in authority, like
// any authoritative miss — and remembers the miss until the next epoch
// bump.
func (r *fedRoot) nxdomain(query *dns.Message, respond func(*dns.Message), name string) {
	if len(r.neg) < maxFedCacheEntries {
		r.neg[name] = struct{}{}
	}
	r.NXDomains++
	respond(&dns.Message{ID: query.ID, Response: true, Authoritative: true,
		RecursionDesired: query.RecursionDesired, Questions: query.Questions,
		RCode: dns.RCodeNXDomain, Authority: []dns.RR{r.zone.SOA()}})
}

// refuse answers p SERVFAIL: no cluster could take the query, or its
// delegation went unanswered. A refusal is never cached.
func (r *fedRoot) refuse(p *pendingResolve) {
	r.ServFails++
	p.respond(&dns.Message{ID: p.query.ID, Response: true,
		RecursionDesired: p.query.RecursionDesired,
		Questions:        p.query.Questions, RCode: dns.RCodeServFail})
}

// answer renders the delegated A answer plus the owning cluster's NS
// delegation records — the referral a resolver could chase directly.
func (r *fedRoot) answer(p *pendingResolve, cid int, ip netstack.IP, ttl uint32) *dns.Message {
	if ttl == 0 {
		ttl = 10
	}
	m := r.f.members[cid]
	p.ans[0] = dns.RR{Name: p.name, Type: dns.TypeA, Class: dns.ClassIN, TTL: ttl, A: ip}
	p.reply = dns.Message{ID: p.query.ID, Response: true,
		RecursionDesired: p.query.RecursionDesired,
		Questions:        p.query.Questions,
		Answers:          p.ans[:],
		Authority:        m.referral, Additional: m.glue}
	return &p.reply
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
		if p := r.pending.Reply(getU32(payload[1:5])); p != nil {
			ip := netstack.IP{payload[6], payload[7], payload[8], payload[9]}
			extra := uint16(payload[10])<<8 | uint16(payload[11])
			r.resolved(p, payload[5], ip, extra, getU32(payload[12:16]))
		}
	case fedOpSpillReply:
		if len(payload) < 6 {
			return
		}
		p := r.pending.Reply(getU32(payload[1:5]))
		switch {
		case p == nil:
		case payload[5] == 1 && p.spillTo >= 0:
			// The service moved; re-delegate the waiting query to its
			// new home.
			to := p.spillTo
			p.spillTo = -1
			r.redirect(p, to)
		default:
			r.refuse(p)
		}
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
		if p.hops >= 3 || r.f.live(int(extra)) == nil {
			r.refuse(p)
			return
		}
		r.redirect(p, int(extra))
	case fedStatusNXDomain:
		// Bloom false positive (or a stale cache hop): try the next
		// candidate; delegate answers NXDOMAIN when none is left.
		p.idx++
		r.delegate(p)
	case fedStatusServFail:
		// Admission refused cluster-wide. The inter-cluster policy
		// spills the service to the least-loaded cluster and re-asks —
		// one hop, once per query. The spill command rides the same
		// retransmit machinery as a resolve: it is idempotent at the
		// agent (a duplicate finds the name already moved and reports
		// failure, which the root refuses — safe, never wrong).
		if r.f.Cfg.spillOnRefuse && p.spillTo < 0 && p.hops < 3 {
			if dst := r.f.spillTarget(cid); dst != nil {
				p.spillTo = dst.ID
				r.send(p, cid)
				return
			}
		}
		fallthrough
	default:
		r.refuse(p)
	}
}
