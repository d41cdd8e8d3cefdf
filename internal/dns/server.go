package dns

import (
	"encoding/binary"
	"strings"
	"time"

	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// Zone is an authoritative record set for one apex (e.g. family.name).
type Zone struct {
	Apex    string
	records map[string][]RR
	// Serial feeds the SOA. Every mutation bumps it, which also
	// invalidates the server's packed answer cache.
	Serial uint32
}

// NewZone creates an empty zone for apex.
func NewZone(apex string) *Zone {
	return &Zone{Apex: CanonicalName(apex), records: make(map[string][]RR), Serial: 1}
}

// Add inserts a record (Name is canonicalised).
func (z *Zone) Add(rr RR) {
	rr.Name = CanonicalName(rr.Name)
	if rr.Class == 0 {
		rr.Class = ClassIN
	}
	z.records[rr.Name] = append(z.records[rr.Name], rr)
	z.Serial++
}

// Remove deletes all records of a type at a name (TypeANY removes all).
func (z *Zone) Remove(name string, typ Type) {
	name = CanonicalName(name)
	if typ == TypeANY {
		delete(z.records, name)
		z.Serial++
		return
	}
	keep := z.records[name][:0]
	for _, rr := range z.records[name] {
		if rr.Type != typ {
			keep = append(keep, rr)
		}
	}
	if len(keep) == 0 {
		delete(z.records, name)
	} else {
		z.records[name] = keep
	}
	z.Serial++
}

// Contains reports whether name falls under the zone apex.
func (z *Zone) Contains(name string) bool {
	name = CanonicalName(name)
	return name == z.Apex || strings.HasSuffix(name, "."+z.Apex)
}

// Delegate records a zone cut: queries at or below child are answered
// with a referral — the child's NS records in the authority section plus
// their glue addresses — instead of authoritative data. The delegation
// lives in ordinary NS + A records, so Remove(child, TypeNS) undoes it.
// A federation root uses this to point resolvers at the member cluster
// that authoritatively owns a name.
func (z *Zone) Delegate(child, ns string, glue netstack.IP) {
	z.Add(RR{Name: child, Type: TypeNS, TTL: 300, Target: CanonicalName(ns)})
	z.Add(RR{Name: ns, Type: TypeA, TTL: 300, A: glue})
}

// Lookup returns records of the given type at name (TypeANY matches all).
func (z *Zone) Lookup(name string, typ Type) []RR {
	name = CanonicalName(name)
	var out []RR
	for _, rr := range z.records[name] {
		if typ == TypeANY || rr.Type == typ {
			out = append(out, rr)
		}
	}
	return out
}

// SOA synthesises the zone's SOA record.
func (z *Zone) SOA() RR {
	return RR{
		Name: z.Apex, Type: TypeSOA, Class: ClassIN, TTL: 300,
		MName: "ns." + z.Apex, RName: "hostmaster." + z.Apex,
		Serial: z.Serial, Refresh: 3600, Retry: 600, Expire: 86400, MinimumTTL: 60,
	}
}

// Verdict is the Intercept hook's decision on one question.
type Verdict int

// Intercept verdicts. Only a VerdictAnswer reply and a VerdictMiss zone
// answer are cached; the other two are rendered for the query at hand.
const (
	// VerdictMiss falls through to the (cached) zone lookup.
	VerdictMiss Verdict = iota
	// VerdictAnswer serves the returned RR, cached as pre-encoded wire
	// until the state epoch or zone serial moves.
	VerdictAnswer
	// VerdictOnce serves the returned RR for this query only: never
	// cached, never counted in CacheHits/CacheMisses, never traced — the
	// cluster's placement picks a replica per query.
	VerdictOnce
	// VerdictServFail serves an (uncached) SERVFAIL — the §3.3.2
	// resource-exhaustion signal, which depends on live free memory.
	VerdictServFail
)

// Server answers DNS queries over a netstack UDP port.
//
// The serve path is two-tier: a zero-allocation fast path parses the
// common single-question query in place and answers from a packed cache
// of pre-encoded responses (ID and RD patched per query); everything
// else — multi-question, EDNS-ish trailing bytes, compressed query
// names, async interception — takes the decode/answer/encode slow path.
// Both paths consult Intercept before the cache or the zone and produce
// byte-identical wire responses.
type Server struct {
	Host *netstack.Host
	Zone *Zone
	// Intercept, when set, gets first crack at each question: name is
	// the canonical query name, valid only for the duration of the call.
	// It must bump the server's state epoch whenever an RR it returned
	// with VerdictAnswer would change.
	Intercept func(name []byte, typ Type) (Verdict, *RR)
	// InterceptAsync, when set, may take over the whole query and
	// respond at a later virtual time (the §3.3.1 alternative Jitsu
	// rejects — delaying the DNS response until the unikernel network is
	// fully established; the federation root's delegation). Returning
	// false falls through to Answer. It turns the in-place path off.
	InterceptAsync func(query *Message, respond func(*Message)) bool
	// ProcessingDelay models server-side work per query.
	ProcessingDelay sim.Duration

	// Queries counts requests handled.
	Queries uint64
	// CacheHits counts fast-path queries served from the answer cache.
	CacheHits uint64
	// CacheMisses counts fast-path queries that had to build (and cache)
	// their response — the cold side of the CacheHits ratio.
	CacheMisses uint64
	// Epoch counts state-epoch bumps (directory registrations changing,
	// cluster membership churn). Observability only: invalidation itself
	// is the wholesale cache drop in BumpEpoch.
	Epoch uint64

	// Tracer, when set, records a "dns"-category instant per cache miss
	// and epoch bump on lane TraceTID. Misses are rare once the cache
	// warms, so the flight recorder sees invalidation storms without
	// drowning in per-query noise; nil keeps the fast path alloc-free.
	Tracer *obs.Tracer
	// TraceTID is the tracer lane for this server's events.
	TraceTID int

	// cache maps (name, qtype) keys to pre-encoded wire responses
	// (stored with ID 0 and RD clear; both patched per query).
	// Invalidation is wholesale: any zone-serial move or BumpEpoch
	// drops the whole map, so no per-entry staleness state exists.
	cache map[string][]byte
	// cacheSerial is the zone serial the cache was built against; any
	// zone mutation invalidates every entry, so the whole map is
	// dropped as soon as a query observes a newer serial (stale entries
	// must not sit at the size cap blocking live names).
	cacheSerial uint32
	// Fast-path scratch buffers, reused across queries.
	nameBuf []byte
	keyBuf  []byte
	sfBuf   []byte // SERVFAIL and VerdictOnce replies
	// replyBuf is what the decode/answer/encode path encodes into.
	replyBuf []byte
	// Closure-free UDP reply path: replyFn is built once at bind time
	// and reads replySrc/replyPort, so the per-datagram handler does
	// not allocate on the synchronous serve path.
	replyFn   func(wire []byte)
	replySrc  netstack.IP
	replyPort uint16
}

// Serve binds the server on UDP port 53.
func Serve(host *netstack.Host, zone *Zone) (*Server, error) {
	s := &Server{Host: host, Zone: zone}
	s.replyFn = func(wire []byte) {
		s.Host.SendUDP(s.replySrc, 53, s.replyPort, wire)
	}
	if err := host.BindUDP(53, s.handle); err != nil {
		return nil, err
	}
	return s, nil
}

// BumpEpoch invalidates every cached answer derived from the
// Intercept hook (and, incidentally, from the zone) by dropping the
// whole cache. Directories call it when registrations change (and the
// cluster calls it on membership churn); re-filling costs one encode
// per live (name, qtype).
func (s *Server) BumpEpoch() {
	s.Epoch++
	clear(s.cache)
	if s.Tracer != nil {
		s.Tracer.Instant(s.TraceTID, "dns", "epoch_bump", obs.Num("epoch", int64(s.Epoch)))
	}
}

func (s *Server) handle(src netstack.IP, srcPort uint16, payload []byte) {
	if s.ProcessingDelay > 0 || s.InterceptAsync != nil {
		// Replies may fire after this handler returns; they need their
		// own capture of the return address.
		s.ServeWire(payload, func(wire []byte) {
			s.Host.SendUDP(src, 53, srcPort, wire)
		})
		return
	}
	// Synchronous path: every send happens inside this ServeWire call,
	// so the pre-built replyFn (no per-datagram closure) is safe.
	s.replySrc, s.replyPort = src, srcPort
	s.ServeWire(payload, s.replyFn)
}

// ServeWire computes the wire response for one query and passes it to
// send (possibly after ProcessingDelay) — the transport-independent
// serve path, exported so benchmarks and conduit-side resolvers can
// drive it without UDP. send must not retain the buffer past the call:
// fast-path responses live in the answer cache and are re-patched for
// the next query.
func (s *Server) ServeWire(payload []byte, send func(wire []byte)) {
	s.Queries++
	if s.InterceptAsync == nil {
		if wire, ok := s.fastAnswer(payload); ok {
			if s.ProcessingDelay > 0 {
				// The cached buffer may be re-patched before the delayed
				// send fires; give the closure its own copy.
				cp := append([]byte(nil), wire...)
				s.Host.Eng.After(s.ProcessingDelay, func() { send(cp) })
			} else {
				send(wire)
			}
			return
		}
	}
	reply := func(resp *Message) {
		wire, err := resp.AppendEncode(s.replyBuf[:0])
		if err != nil {
			return
		}
		s.replyBuf = wire
		send(wire)
	}
	query, err := Decode(payload)
	if err != nil || query.Response {
		// Decode returns no message with an error: the ID a resolver
		// matches the refusal on (and RD) come from the header itself.
		resp := &Message{Response: true, RCode: RCodeFormErr}
		if len(payload) >= 12 {
			resp.ID = binary.BigEndian.Uint16(payload)
			resp.RecursionDesired = payload[2]&1 != 0
		}
		reply(resp)
		return
	}
	if s.InterceptAsync != nil && s.InterceptAsync(query, reply) {
		return
	}
	resp := s.Answer(query)
	if s.ProcessingDelay > 0 {
		s.Host.Eng.After(s.ProcessingDelay, func() { reply(resp) })
	} else {
		reply(resp)
	}
}

// fastAnswer is the zero-allocation serve path. It parses the common
// query shape in place (single question, opcode 0, class IN, no
// compression, no extra records), consults the Intercept hook, and
// serves a pre-encoded cached response with ID and RD patched in. ok is
// false when the query needs the slow path.
func (s *Server) fastAnswer(payload []byte) (wire []byte, ok bool) {
	if len(payload) < 12 {
		return nil, false
	}
	flags := uint16(payload[2])<<8 | uint16(payload[3])
	if flags&(1<<15) != 0 || (flags>>11)&0xf != 0 {
		return nil, false // response bit or non-standard opcode
	}
	if payload[4] != 0 || payload[5] != 1 || // exactly one question
		payload[6]|payload[7]|payload[8]|payload[9]|payload[10]|payload[11] != 0 {
		return nil, false
	}
	// Parse the query name: plain labels, lowercased into nameBuf. Any
	// oddity (compression pointer, '.' inside a label, overlength) goes
	// to the slow path so the canonical dotted form stays unambiguous.
	name := s.nameBuf[:0]
	off := 12
	for {
		if off >= len(payload) {
			return nil, false
		}
		b := payload[off]
		if b == 0 {
			off++
			break
		}
		if b&0xc0 != 0 {
			return nil, false
		}
		l := int(b)
		if off+1+l > len(payload) {
			return nil, false
		}
		if len(name) > 0 {
			name = append(name, '.')
		}
		for _, c := range payload[off+1 : off+1+l] {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			} else if c == '.' {
				s.nameBuf = name
				return nil, false
			}
			name = append(name, c)
		}
		if len(name) > 253 {
			s.nameBuf = name
			return nil, false
		}
		off += 1 + l
	}
	s.nameBuf = name
	if off+4 != len(payload) {
		return nil, false
	}
	typ := Type(uint16(payload[off])<<8 | uint16(payload[off+1]))
	if class := uint16(payload[off+2])<<8 | uint16(payload[off+3]); class != ClassIN {
		return nil, false
	}
	qid := uint16(payload[0])<<8 | uint16(payload[1])
	rd := payload[2] & 1

	verdict, rr := VerdictMiss, (*RR)(nil)
	if s.Intercept != nil {
		verdict, rr = s.Intercept(name, typ)
	}
	switch verdict {
	case VerdictServFail:
		return s.servfailWire(qid, rd, name, typ), true
	case VerdictOnce:
		w, err := s.render(s.sfBuf[:0], name, typ, rr)
		if err != nil {
			return nil, false
		}
		s.sfBuf = w
		return patchWire(w, qid, rd), true
	}

	key := append(append(s.keyBuf[:0], name...), byte(typ>>8), byte(typ))
	s.keyBuf = key
	serial := uint32(0)
	if s.Zone != nil {
		serial = s.Zone.Serial
	}
	if serial != s.cacheSerial {
		clear(s.cache)
		s.cacheSerial = serial
	}
	if w := s.cache[string(key)]; w != nil {
		s.CacheHits++
		return patchWire(w, qid, rd), true
	}

	// Cache miss: build the response once through the ordinary Message
	// path (so cached bytes are identical to slow-path encodes), store
	// it with ID 0 / RD clear, then patch and serve.
	s.CacheMisses++
	if s.Tracer != nil {
		s.Tracer.Instant(s.TraceTID, "dns", "cache_miss", obs.Str("name", string(name)))
	}
	w, err := s.render(nil, name, typ, rr)
	if err != nil {
		return nil, false
	}
	if s.cache == nil {
		s.cache = make(map[string][]byte)
	}
	// Bound the cache so a flood of distinct junk names (every NXDomain
	// gets an entry too) cannot grow the directory's memory without
	// limit; past the cap, responses are still served, just not cached.
	if len(s.cache) < maxCacheEntries {
		s.cache[string(key)] = w
	}
	return patchWire(w, qid, rd), true
}

// render encodes the reply to one in-place-parsed question into dst
// through the ordinary Message path, so its bytes are identical to a
// slow-path encode: rr as the answer, or the zone's answer when rr is
// nil (VerdictMiss).
func (s *Server) render(dst, name []byte, typ Type, rr *RR) ([]byte, error) {
	resp := Message{Response: true, Authoritative: true,
		Questions: []Question{{Name: string(name), Type: typ, Class: ClassIN}}}
	if rr != nil {
		resp.Answers = []RR{*rr}
	} else {
		s.answerFromZone(resp.Questions[0], &resp)
	}
	return resp.AppendEncode(dst)
}

// maxCacheEntries bounds the packed answer cache (keys are short, wire
// entries ~60 bytes: well under 1 MiB at the cap).
const maxCacheEntries = 8192

// patchWire stamps the per-query header bits (ID, RD) into a cached
// response in place.
func patchWire(w []byte, qid uint16, rd byte) []byte {
	w[0], w[1] = byte(qid>>8), byte(qid)
	w[2] = w[2]&^byte(1) | rd
	return w
}

// servfailWire renders a SERVFAIL for one question into a reusable
// buffer: header plus question echo, identical to the slow-path encode
// of the equivalent Message.
func (s *Server) servfailWire(qid uint16, rd byte, name []byte, typ Type) []byte {
	w := append(s.sfBuf[:0],
		byte(qid>>8), byte(qid),
		1<<7|rd, byte(RCodeServFail), // QR | AA is bit 10 -> 0x04 of byte 2
		0, 1, 0, 0, 0, 0, 0, 0)
	w[2] |= 1 << 2 // AA
	// Question: labels split at dots (the parse guaranteed clean labels).
	start := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '.' {
			w = append(w, byte(i-start))
			w = append(w, name[start:i]...)
			start = i + 1
		}
	}
	if len(name) == 0 {
		w = w[:len(w)-1] // no labels at all: just the root terminator
	}
	w = append(w, 0, byte(typ>>8), byte(typ), byte(ClassIN>>8), byte(ClassIN))
	s.sfBuf = w
	return w
}

// Answer computes the authoritative response for a query (exported so
// tests and the conduit-side resolver can call it without UDP).
func (s *Server) Answer(query *Message) *Message {
	resp := &Message{
		ID: query.ID, Response: true, Authoritative: true,
		RecursionDesired: query.RecursionDesired,
		Questions:        query.Questions,
	}
	if len(query.Questions) == 0 {
		resp.RCode = RCodeFormErr
		return resp
	}
	for _, q := range query.Questions {
		verdict, rr := VerdictMiss, (*RR)(nil)
		if s.Intercept != nil {
			verdict, rr = s.Intercept([]byte(CanonicalName(q.Name)), q.Type)
		}
		switch verdict {
		case VerdictMiss:
			s.answerFromZone(q, resp)
		case VerdictServFail:
			resp.RCode = RCodeServFail
		default:
			resp.Answers = append(resp.Answers, *rr)
		}
	}
	return resp
}

// answerFromZone resolves one question against the zone with a single
// record-map access for the question name (the CNAME chase costs one
// more for the target).
func (s *Server) answerFromZone(q Question, resp *Message) {
	if s.Zone == nil || !s.Zone.Contains(q.Name) {
		resp.RCode = RCodeRefused
		return
	}
	rrs := s.Zone.records[CanonicalName(q.Name)]
	nTyped := 0
	for _, rr := range rrs {
		if q.Type == TypeANY || rr.Type == q.Type {
			resp.Answers = append(resp.Answers, rr)
			nTyped++
		}
	}
	if nTyped > 0 {
		return
	}
	// CNAME chase within the zone.
	for i, rr := range rrs {
		if rr.Type == TypeCNAME {
			for _, cn := range rrs[i:] {
				if cn.Type == TypeCNAME {
					resp.Answers = append(resp.Answers, cn)
				}
			}
			resp.Answers = append(resp.Answers, s.Zone.Lookup(rr.Target, q.Type)...)
			return
		}
	}
	if s.referral(CanonicalName(q.Name), resp) {
		return
	}
	if len(rrs) == 0 {
		resp.RCode = RCodeNXDomain
	}
	resp.Authority = append(resp.Authority, s.Zone.SOA())
}

// referral answers a name at or below a zone cut (Zone.Delegate): the
// cut's NS records go in the authority section with their glue
// addresses in additional, and the response is non-authoritative — the
// delegation answer a resolver chases to the child's nameserver.
func (s *Server) referral(name string, resp *Message) bool {
	for cut := name; cut != s.Zone.Apex; {
		found := false
		for _, rr := range s.Zone.records[cut] {
			if rr.Type != TypeNS {
				continue
			}
			found = true
			resp.Authority = append(resp.Authority, rr)
			for _, glue := range s.Zone.records[CanonicalName(rr.Target)] {
				if glue.Type == TypeA {
					resp.Additional = append(resp.Additional, glue)
				}
			}
		}
		if found {
			resp.Authoritative = false
			return true
		}
		i := strings.IndexByte(cut, '.')
		if i < 0 {
			return false
		}
		cut = cut[i+1:]
	}
	return false
}

// Client is the resolver: the one inside every Fetcher, so it asks each
// experiment's and each bench workload's questions, and the one tests and
// examples query with directly.
type Client struct {
	Host *netstack.Host
	// Retry schedules copies of an unanswered query's datagram (same ID
	// and source port), jittered from the engine RNG; the zero value is
	// one datagram, one timeout — the ablation.
	Retry sim.Backoff
	// Retries counts retransmitted datagrams (not first transmissions).
	Retries uint64
	queries sim.Requests[*query]
}

// DefaultRetry is the hardened profile: 3 retransmits starting at
// 200ms, doubling, with 50% jitter — tuned so one lost datagram on a
// lossy edge link costs ~200-300ms instead of the full client timeout.
func DefaultRetry() sim.Backoff {
	return sim.Backoff{Retries: 3, Initial: 200 * time.Millisecond, Factor: 2, Jitter: 0.5}
}

// clientPortLo is the bottom of the resolver's source-port range; retry
// probing wraps back here instead of walking past 65535 into the
// reserved low ports.
const clientPortLo = 10000

// nextSrcPort advances the retry probe, wrapping uint16 overflow back
// into the ephemeral range instead of walking through ports 0..1023.
func nextSrcPort(p uint16) uint16 {
	p++
	if p < clientPortLo {
		p = clientPortLo
	}
	return p
}

// Query sends one question to server:53 and invokes done with the
// response (or an error after timeout; with timeout <= 0, after Retry's
// last wait). The response is the query's own storage, written by
// nothing once done has it: the caller may keep it.
func (c *Client) Query(server netstack.IP, name string, typ Type, timeout sim.Duration, done func(*Message, sim.Duration, error)) {
	q := &query{c: c, server: server, typ: typ, name: CanonicalName(name), start: c.Host.Eng.Now(), done: done}
	// Query IDs count from 1; a source port is picked from the ID so
	// concurrent queries from one host do not collide.
	q.id = uint16(c.queries.Open(&q.req, q) + 1)
	q.srcPort = uint16(clientPortLo + q.id%50000)
	wire, err := q.encode()
	if err != nil {
		q.req.Settle()
		done(nil, 0, err)
		return
	}
	for tries := 0; c.Host.BindDatagrams(q.srcPort, q) != nil; tries++ {
		if tries > 1000 {
			q.req.Settle()
			done(nil, 0, netstack.ErrPortInUse)
			return
		}
		q.srcPort = nextSrcPort(q.srcPort)
	}
	// The order below is what the engine's seq and RNG streams see: the
	// deadline, then the retransmit (whose jitter Arm draws), then the
	// datagram.
	q.req.Arm(c.Host.Eng, &c.Retry, timeout)
	c.Host.SendUDP(server, q.srcPort, 53, wire)
}

// query is one Query in flight: its port's application, its entry in
// the client's table and the storage of the datagram it sends and the
// reply it decodes.
type query struct {
	c           *Client
	req         sim.Request[*query]
	server      netstack.IP
	id, srcPort uint16
	typ         Type
	name        string // the question's, which the reply's echo shares
	wireBuf     [64]byte
	reply       decoded
	start       sim.Duration
	done        func(*Message, sim.Duration, error)
}

// encode renders the query's datagram, in wireBuf when it fits: the
// same bytes each time, so a retransmit is an identical copy.
func (q *query) encode() ([]byte, error) {
	questions := [1]Question{{Name: q.name, Type: q.typ, Class: ClassIN}}
	m := Message{ID: q.id, RecursionDesired: true, Questions: questions[:]}
	return m.AppendEncode(q.wireBuf[:0])
}

// Datagram takes a datagram to the query's port: the first that decodes
// with the query's ID is the reply. The port is bound only while the
// query is live.
func (q *query) Datagram(_ netstack.IP, _ uint16, payload []byte) {
	if err := decodeInto(payload, &q.reply, q.name); err != nil || q.reply.ID != q.id {
		return
	}
	q.req.Settle()
	q.end(&q.reply.Message, q.c.Host.Eng.Now()-q.start, nil)
}

// Resend retransmits the identical datagram from the identical source
// port, so a late answer to any copy still matches.
func (q *query) Resend() {
	q.c.Retries++
	wire, _ := q.encode()
	q.c.Host.SendUDP(q.server, q.srcPort, 53, wire)
}

// Expire ends the query unanswered.
func (q *query) Expire() { q.end(nil, 0, netstack.ErrTimeout) }

// end releases the settled query's port and hands done its outcome.
func (q *query) end(m *Message, rtt sim.Duration, err error) {
	q.c.Host.UnbindUDP(q.srcPort)
	q.done(m, rtt, err)
}
