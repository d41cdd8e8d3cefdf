package dns

import (
	"bytes"
	"testing"

	"jitsu/internal/netstack"
)

// FuzzDNSCodec mirrors netstack/fuzz_test.go for the DNS layer: the
// codec is the classic parser attack surface, and the append-encoder
// must round-trip whatever the decoder accepts. The seeds cover name
// compression, pointer loops, and fast-path query shapes.
func FuzzDNSCodec(f *testing.F) {
	// A compressed response: question + answers sharing the name.
	m := &Message{
		ID: 0x1234, Response: true, Authoritative: true,
		Questions: []Question{{Name: "alice.family.name", Type: TypeA, Class: ClassIN}},
		Answers: []RR{
			{Name: "alice.family.name", Type: TypeA, Class: ClassIN, TTL: 60, A: netstack.IPv4(10, 0, 0, 20)},
			{Name: "alice.family.name", Type: TypeTXT, Class: ClassIN, TTL: 60, TXT: "served-by=jitsu"},
		},
		Authority: []RR{{Name: "family.name", Type: TypeSOA, Class: ClassIN, TTL: 300,
			MName: "ns.family.name", RName: "hostmaster.family.name",
			Serial: 3, Refresh: 3600, Retry: 600, Expire: 86400, MinimumTTL: 60}},
	}
	if wire, err := m.Encode(); err == nil {
		f.Add(wire)
	}
	// A plain query (the fast-path shape).
	q := &Message{ID: 9, RecursionDesired: true,
		Questions: []Question{{Name: "alice.family.name", Type: TypeA, Class: ClassIN}}}
	if wire, err := q.Encode(); err == nil {
		f.Add(wire)
	}
	// A self-referential compression pointer (must error, not loop).
	loop := make([]byte, 18)
	loop[5] = 1
	loop[12], loop[13] = 0xc0, 12
	f.Add(loop)
	// A pointer chain and a label that overruns the buffer.
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 14, 0, 1, 0, 1, 63, 'a'})

	f.Add(chain(8))
	f.Add(deepChain(32))
	f.Add(longTarget())

	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoder against the one it replaced: deep-equal message,
		// identical error, on every input.
		m, err := sameDecode(t, data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same thing
		// (encoding may fail for exotic-but-decodable records, e.g.
		// rdata types we never emit; that is not a round-trip failure).
		wire, err := m.AppendEncode(nil)
		if err != nil {
			return
		}
		m2, err := Decode(wire)
		if err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v\nwire=%x", err, wire)
		}
		w2, err := m2.AppendEncode(nil)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(wire, w2) {
			t.Fatalf("encode not a fixpoint:\n%x\n%x", wire, w2)
		}

		// The serve path must be total on arbitrary input, and fast- and
		// slow-path responses must agree byte for byte.
		fast := testZoneServerForFuzz()
		slow := testZoneServerForFuzz()
		slow.InterceptAsync = func(*Message, func(*Message)) bool { return false } // forces slow path
		var fastWire, slowWire []byte
		fast.ServeWire(data, func(w []byte) { fastWire = append([]byte(nil), w...) })
		slow.ServeWire(data, func(w []byte) { slowWire = append([]byte(nil), w...) })
		if !bytes.Equal(fastWire, slowWire) {
			t.Fatalf("fast/slow disagree for %x:\nfast %x\nslow %x", data, fastWire, slowWire)
		}
	})
}

func testZoneServerForFuzz() *Server {
	zone := NewZone("family.name")
	zone.Add(RR{Name: "alice.family.name", Type: TypeA, TTL: 60, A: netstack.IPv4(10, 0, 0, 20)})
	zone.Add(RR{Name: "www.family.name", Type: TypeCNAME, TTL: 60, Target: "alice.family.name"})
	return zone.testServer()
}

// testServer builds an unbound server over the zone (fuzz helper).
func (z *Zone) testServer() *Server { return &Server{Zone: z} }
