package dns

import (
	"testing"

	"jitsu/internal/netstack"
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
