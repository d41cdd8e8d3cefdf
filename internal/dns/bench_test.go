package dns

import (
	"testing"
	"time"

	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// The layer's own benches (ROADMAP perf ledger): `make bench` runs them
// beside the root package's and benchjson files them under "dns". The
// directory's DNS responder sits on the critical path of every request,
// so its per-query cost bounds cluster throughput.

// BenchmarkDNSServe measures the full wire-to-wire serve path — parse,
// answer, encode — for a zone hit, as the server's UDP handler runs it.
func BenchmarkDNSServe(b *testing.B) {
	zone := NewZone("family.name")
	zone.Add(RR{Name: "alice.family.name", Type: TypeA, TTL: 60, A: netstack.IPv4(10, 0, 0, 20)})
	s := &Server{Zone: zone}
	q := &Message{ID: 7, RecursionDesired: true,
		Questions: []Question{{Name: "alice.family.name", Type: TypeA, Class: ClassIN}}}
	wire, err := q.Encode()
	if err != nil {
		b.Fatal(err)
	}
	sent := 0
	sink := func([]byte) { sent++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeWire(wire, sink)
	}
	b.StopTimer()
	if sent != b.N {
		b.Fatalf("served %d of %d", sent, b.N)
	}
}

// BenchmarkQuery is a client's Query round trip with the hardened retry
// profile: the query, its deadline and retransmit timers, the datagram
// to the server and the answer back, decoded.
func BenchmarkQuery(b *testing.B) {
	op := queryOp(b)
	op() // resolve ARP
	b.ReportAllocs()
	for b.Loop() {
		op()
	}
}

// queryOp is BenchmarkQuery's op: one query answered, the engine
// drained.
func queryOp(tb testing.TB) func() {
	eng, client, srv := dnsPair(tb)
	c := &Client{Host: client, Retry: DefaultRetry()}
	done := func(m *Message, _ sim.Duration, err error) {
		if err != nil || len(m.Answers) != 1 {
			tb.Fatal(m, err)
		}
	}
	return func() {
		c.Query(srv.Host.IP, "alice.family.name", TypeA, time.Second, done)
		eng.Run()
		if c.Retries != 0 {
			tb.Fatalf("%d retransmits on a clean link", c.Retries)
		}
	}
}

// TestQueryAllocs pins BenchmarkQuery's round trip to the one query
// object: it holds the datagram it sends and the reply it decodes, whose
// name is the question's own string, and it is its port's handler and
// its timers' event.
func TestQueryAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(200, queryOp(t)); n != 1 {
		t.Fatalf("a query round trip allocates %v, want 1", n)
	}
}

// BenchmarkDNSCodec measures one encode (into a recycled buffer) plus
// one decode of a representative multi-section response.
func BenchmarkDNSCodec(b *testing.B) {
	m := &Message{
		ID: 0x1234, Response: true, Authoritative: true,
		Questions: []Question{{Name: "alice.family.name", Type: TypeA, Class: ClassIN}},
		Answers: []RR{
			{Name: "alice.family.name", Type: TypeA, Class: ClassIN, TTL: 60, A: netstack.IPv4(10, 0, 0, 20)},
			{Name: "alice.family.name", Type: TypeTXT, Class: ClassIN, TTL: 60, TXT: "served-by=jitsu"},
		},
		Authority: []RR{{Name: "family.name", Type: TypeNS, Class: ClassIN, TTL: 300, Target: "ns.family.name"}},
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = m.AppendEncode(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// referralWire is the reply a federation root sends for a service it has
// delegated: the A answer, the owning cluster's NS record and its glue,
// every name after the question compressed against an earlier one.
func referralWire(tb testing.TB) []byte {
	m := &Message{
		ID: 7, Response: true, RecursionDesired: true,
		Questions:  []Question{{Name: "alice.family.name", Type: TypeA, Class: ClassIN}},
		Answers:    []RR{{Name: "alice.family.name", Type: TypeA, Class: ClassIN, TTL: 60, A: netstack.IPv4(10, 10, 100, 20)}},
		Authority:  []RR{{Name: "c0.family.name", Type: TypeNS, Class: ClassIN, TTL: 300, Target: "ns.c0.family.name"}},
		Additional: []RR{{Name: "ns.c0.family.name", Type: TypeA, Class: ClassIN, TTL: 300, A: netstack.IPv4(10, 254, 0, 10)}},
	}
	wire, err := m.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return wire
}

// BenchmarkDecodeReferral is the resolver's side of a federated lookup:
// five names of which two are bare pointers, three sections in one
// record array (10 allocs/op with a string per name and a slice per
// section; 5 now — message, records, three names).
func BenchmarkDecodeReferral(b *testing.B) {
	wire := referralWire(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDecodeReferralAllocs(t *testing.T) {
	wire := referralWire(t)
	if got := testing.AllocsPerRun(200, func() { Decode(wire) }); got != 5 {
		t.Errorf("decoding a referral allocates %.0f times, want 5", got)
	}
	if got := testing.AllocsPerRun(200, func() { refDecode(wire) }); got != 10 {
		t.Errorf("the reference decoder allocates %.0f times on a referral, want the old 10", got)
	}
}
