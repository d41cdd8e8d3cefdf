package dns

import (
	"bytes"
	"testing"
	"time"

	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// serveOnce runs one query through ServeWire and returns the reply.
func serveOnce(t *testing.T, s *Server, payload []byte) []byte {
	t.Helper()
	var got []byte
	s.ServeWire(payload, func(w []byte) { got = append([]byte(nil), w...) })
	if got == nil {
		t.Fatalf("no reply for %x", payload)
	}
	return got
}

// freshEncode computes the slow-path response for the same query.
func freshEncode(t *testing.T, s *Server, payload []byte) []byte {
	t.Helper()
	q, err := Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := s.Answer(q).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func testZoneServer() *Server {
	zone := NewZone("family.name")
	zone.Add(RR{Name: "alice.family.name", Type: TypeA, TTL: 60, A: netstack.IPv4(10, 0, 0, 20)})
	zone.Add(RR{Name: "alice.family.name", Type: TypeTXT, TTL: 60, TXT: "v=1"})
	zone.Add(RR{Name: "www.family.name", Type: TypeCNAME, TTL: 60, Target: "alice.family.name"})
	return &Server{Zone: zone}
}

func queryWire(t *testing.T, id uint16, name string, typ Type, rd bool) []byte {
	t.Helper()
	q := &Message{ID: id, RecursionDesired: rd,
		Questions: []Question{{Name: name, Type: typ, Class: ClassIN}}}
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// The acceptance property of the answer cache: a cache-served response
// must be byte-identical to a freshly encoded one — cached wire feeds
// the same per-byte network cost models, so any divergence would break
// bit-for-bit determinism.
func TestCacheServedBytesIdentical(t *testing.T) {
	s := testZoneServer()
	cases := []struct {
		name string
		typ  Type
		rd   bool
	}{
		{"alice.family.name", TypeA, true},    // typed hit
		{"alice.family.name", TypeANY, false}, // ANY hit
		{"www.family.name", TypeA, true},      // CNAME chase
		{"alice.family.name", TypeSRV, true},  // exists, no match -> SOA
		{"ghost.family.name", TypeA, true},    // NXDomain + SOA
		{"outside.org", TypeA, false},         // Refused
		{"ALICE.Family.Name", TypeA, true},    // case-folded on both paths
	}
	for round := 0; round < 3; round++ { // round 0 fills, 1-2 hit the cache
		for i, c := range cases {
			id := uint16(0x100*round + i + 1)
			wire := queryWire(t, id, c.name, c.typ, c.rd)
			got := serveOnce(t, s, wire)
			want := freshEncode(t, s, wire)
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d %s/%v: cached %x != fresh %x", round, c.name, c.typ, got, want)
			}
		}
	}
	if s.CacheHits == 0 {
		t.Fatal("cache never hit")
	}
}

func TestCacheInvalidatedByZoneSerial(t *testing.T) {
	s := testZoneServer()
	w1 := serveOnce(t, s, queryWire(t, 1, "alice.family.name", TypeA, true))
	d1, err := Decode(w1)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Answers[0].A != netstack.IPv4(10, 0, 0, 20) {
		t.Fatalf("answer %v", d1.Answers[0].A)
	}
	// Re-point the record; the cached answer must not survive.
	s.Zone.Remove("alice.family.name", TypeA)
	s.Zone.Add(RR{Name: "alice.family.name", Type: TypeA, TTL: 60, A: netstack.IPv4(10, 0, 0, 99)})
	w2 := serveOnce(t, s, queryWire(t, 2, "alice.family.name", TypeA, true))
	d2, err := Decode(w2)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Answers[0].A != netstack.IPv4(10, 0, 0, 99) {
		t.Fatalf("stale cached answer served: %v", d2.Answers[0].A)
	}
	// The serial bump must have dropped the stale entries wholesale
	// (they would otherwise sit at the size cap blocking live names).
	if len(s.cache) != 1 {
		t.Fatalf("stale entries survived the serial bump: %d cached", len(s.cache))
	}
	// And the rebuilt entry is served from cache again.
	hits := s.CacheHits
	serveOnce(t, s, queryWire(t, 3, "alice.family.name", TypeA, true))
	if s.CacheHits != hits+1 {
		t.Fatal("rebuilt entry not cached")
	}
}

func TestCacheInvalidatedByEpoch(t *testing.T) {
	s := &Server{Zone: NewZone("family.name")}
	answer := RR{Name: "svc.family.name", Type: TypeA, Class: ClassIN, TTL: 10, A: netstack.IPv4(10, 0, 0, 5)}
	s.Intercept = func(name []byte, typ Type) (Verdict, *RR) {
		if string(name) == "svc.family.name" {
			return VerdictAnswer, &answer
		}
		return VerdictMiss, nil
	}
	w1 := serveOnce(t, s, queryWire(t, 1, "svc.family.name", TypeA, true))
	answer.A = netstack.IPv4(10, 0, 0, 6)
	// Without a bump the stale wire is (intentionally) served...
	w2 := serveOnce(t, s, queryWire(t, 1, "svc.family.name", TypeA, true))
	if !bytes.Equal(w1, w2) {
		t.Fatal("expected cached bytes before epoch bump")
	}
	// ...and the bump invalidates it.
	s.BumpEpoch()
	w3 := serveOnce(t, s, queryWire(t, 3, "svc.family.name", TypeA, true))
	d3, err := Decode(w3)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Answers[0].A != netstack.IPv4(10, 0, 0, 6) {
		t.Fatalf("epoch bump did not invalidate: %v", d3.Answers[0].A)
	}
}

func TestFastPathPatchesIDAndRD(t *testing.T) {
	s := testZoneServer()
	for _, rd := range []bool{true, false} {
		for _, id := range []uint16{1, 0xbeef, 0} {
			w := serveOnce(t, s, queryWire(t, id, "alice.family.name", TypeA, rd))
			d, err := Decode(w)
			if err != nil {
				t.Fatal(err)
			}
			if d.ID != id || d.RecursionDesired != rd {
				t.Fatalf("id=%d rd=%v decoded as id=%d rd=%v", id, rd, d.ID, d.RecursionDesired)
			}
			if !d.Response || !d.Authoritative {
				t.Fatalf("flags lost: %+v", d)
			}
		}
	}
}

func TestFastPathServFailMatchesSlowPath(t *testing.T) {
	s := testZoneServer()
	s.Intercept = func(name []byte, typ Type) (Verdict, *RR) {
		if string(name) == "full.family.name" {
			return VerdictServFail, nil
		}
		return VerdictMiss, nil
	}
	wire := queryWire(t, 0x42, "full.family.name", TypeA, true)
	got := serveOnce(t, s, wire)
	want := freshEncode(t, s, wire)
	if !bytes.Equal(got, want) {
		t.Fatalf("servfail wire %x != slow path %x", got, want)
	}
	d, _ := Decode(got)
	if d.RCode != RCodeServFail {
		t.Fatalf("rcode %v", d.RCode)
	}
}

// The one hook runs before the cache on every query — its side effect
// (a launch) must happen even when the reply is cached — and only
// VerdictAnswer and zone replies are cached: a VerdictOnce reply is
// rendered per query, uncounted and untraced, and is the same bytes on
// both serve paths.
func TestInterceptBeforeCache(t *testing.T) {
	s := testZoneServer()
	tr := obs.NewTracer(1 << 10)
	tr.BindClock(sim.New(1).Now)
	s.Tracer = tr
	calls := 0
	cached := RR{Name: "svc.family.name", Type: TypeA, Class: ClassIN, TTL: 10, A: netstack.IPv4(10, 0, 0, 5)}
	once := RR{Name: "pool.family.name", Type: TypeA, Class: ClassIN, TTL: 10}
	s.Intercept = func(name []byte, typ Type) (Verdict, *RR) {
		calls++
		switch string(name) {
		case "svc.family.name":
			return VerdictAnswer, &cached
		case "pool.family.name":
			once.A[3]++ // a different replica every query
			return VerdictOnce, &once
		}
		return VerdictMiss, nil
	}
	for id := uint16(1); id <= 2; id++ {
		serveOnce(t, s, queryWire(t, id, "svc.family.name", TypeA, true))
	}
	if calls != 2 || s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Fatalf("cached answer: hook ran %d times, hits=%d misses=%d; want 2, 1, 1", calls, s.CacheHits, s.CacheMisses)
	}
	events := tr.Len()
	var replies [][]byte
	for id := uint16(1); id <= 3; id++ {
		wire := queryWire(t, id, "pool.family.name", TypeA, id != 2)
		got := serveOnce(t, s, wire)
		once.A[3]-- // the slow path must see the same replica
		if want := freshEncode(t, s, wire); !bytes.Equal(got, want) {
			t.Fatalf("query %d: VerdictOnce wire %x != slow path %x", id, got, want)
		}
		replies = append(replies, got)
	}
	if bytes.Equal(replies[0][2:], replies[2][2:]) {
		t.Fatal("a VerdictOnce reply was served from the cache")
	}
	if s.CacheHits != 1 || s.CacheMisses != 1 || len(s.cache) != 1 || tr.Len() != events {
		t.Fatalf("VerdictOnce touched the cache: hits=%d misses=%d entries=%d trace events %d -> %d",
			s.CacheHits, s.CacheMisses, len(s.cache), events, tr.Len())
	}
}

// TestFastPathAllocFree pins the zero-allocation serve guarantee the
// bench gate enforces: with tracing disabled the warm cache-hit path
// allocates nothing, attaching a tracer leaves the hit path alloc-free
// (trace events only fire on the rare miss branch), and the miss path's
// trace cost is bounded rather than per-query.
func TestFastPathAllocFree(t *testing.T) {
	s := testZoneServer()
	wire := queryWire(t, 7, "alice.family.name", TypeA, true)
	sink := func([]byte) {}
	s.ServeWire(wire, sink) // fill the cache
	if n := testing.AllocsPerRun(100, func() { s.ServeWire(wire, sink) }); n != 0 {
		t.Fatalf("tracing disabled: %v allocs/op on the cache-hit path", n)
	}
	eng := sim.New(1)
	tr := obs.NewTracer(1 << 10)
	tr.BindClock(eng.Now)
	s.Tracer = tr
	if n := testing.AllocsPerRun(100, func() { s.ServeWire(wire, sink) }); n != 0 {
		t.Fatalf("tracing enabled: %v allocs/op on the cache-hit path", n)
	}
	// Misses forced by epoch bumps: the slow path has always allocated
	// (fresh encode + cache insert); tracing must only add a bounded
	// per-miss cost on top, not a ramp that grows with the ring.
	misses := s.CacheMisses
	n := testing.AllocsPerRun(100, func() {
		s.BumpEpoch()
		s.ServeWire(wire, sink)
	})
	if s.CacheMisses == misses {
		t.Fatal("epoch bumps did not force cache misses")
	}
	if n > 24 {
		t.Fatalf("traced miss path allocates %v/op; want a small bound", n)
	}
}

func TestClientSourcePortWraparound(t *testing.T) {
	// The retry probe must never walk off the end of the port space
	// into the reserved low ports.
	for _, c := range []struct{ in, want uint16 }{
		{65535, clientPortLo}, // uint16 wrap
		{20000, 20001},        // ordinary advance
		{clientPortLo - 1, clientPortLo},
	} {
		if got := nextSrcPort(c.in); got != c.want {
			t.Errorf("nextSrcPort(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	// And from any starting port, 1001 probes stay in the ephemeral range.
	p := uint16(65000)
	for i := 0; i < 1001; i++ {
		p = nextSrcPort(p)
		if p < clientPortLo {
			t.Fatalf("probe %d landed on reserved port %d", i, p)
		}
	}
}

func TestClientRetriesBusySourcePort(t *testing.T) {
	eng, client, srv := dnsPair(t)
	c := &Client{Host: client}
	// Occupy the first-choice port for the next query (id 1).
	busy := uint16(clientPortLo + 1)
	if err := client.BindUDP(busy, func(netstack.IP, uint16, []byte) {}); err != nil {
		t.Fatal(err)
	}
	var resp *Message
	c.Query(srv.Host.IP, "alice.family.name", TypeA, 5*time.Second, func(m *Message, _ sim.Duration, err error) {
		if err != nil {
			t.Fatal(err)
		}
		resp = m
	})
	eng.Run()
	if resp == nil || len(resp.Answers) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
}
