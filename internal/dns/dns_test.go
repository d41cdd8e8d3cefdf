package dns

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		ID: 0x1234, Response: true, Authoritative: true, RecursionDesired: true,
		Questions: []Question{{Name: "alice.family.name", Type: TypeA, Class: ClassIN}},
		Answers: []RR{
			{Name: "alice.family.name", Type: TypeA, Class: ClassIN, TTL: 60, A: netstack.IPv4(10, 0, 0, 20)},
			{Name: "alice.family.name", Type: TypeTXT, Class: ClassIN, TTL: 60, TXT: "served-by=jitsu"},
		},
		Authority: []RR{
			{Name: "family.name", Type: TypeNS, Class: ClassIN, TTL: 300, Target: "ns.family.name"},
		},
		Additional: []RR{
			{Name: "ns.family.name", Type: TypeA, Class: ClassIN, TTL: 300, A: netstack.IPv4(10, 0, 0, 1)},
		},
	}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != m.ID || !d.Response || !d.Authoritative || !d.RecursionDesired {
		t.Fatalf("header mismatch: %+v", d)
	}
	if len(d.Questions) != 1 || d.Questions[0].Name != "alice.family.name" || d.Questions[0].Type != TypeA {
		t.Fatalf("questions: %+v", d.Questions)
	}
	if len(d.Answers) != 2 || d.Answers[0].A != netstack.IPv4(10, 0, 0, 20) || d.Answers[1].TXT != "served-by=jitsu" {
		t.Fatalf("answers: %+v", d.Answers)
	}
	if len(d.Authority) != 1 || d.Authority[0].Target != "ns.family.name" {
		t.Fatalf("authority: %+v", d.Authority)
	}
	if len(d.Additional) != 1 {
		t.Fatalf("additional: %+v", d.Additional)
	}
}

func TestNameCompressionSavesSpace(t *testing.T) {
	long := "really.quite.long.subdomain.family.name"
	m := &Message{ID: 1, Questions: []Question{{Name: long, Type: TypeA, Class: ClassIN}}}
	for i := 0; i < 5; i++ {
		m.Answers = append(m.Answers, RR{Name: long, Type: TypeA, Class: ClassIN, TTL: 60, A: netstack.IPv4(10, 0, 0, byte(i))})
	}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Uncompressed, the name alone is 41 bytes × 6 occurrences = 246.
	// Compression should keep the whole message well under that.
	if len(wire) > 200 {
		t.Fatalf("message %d bytes; compression not effective", len(wire))
	}
	d, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range d.Answers {
		if a.Name != long {
			t.Fatalf("decompressed name = %q", a.Name)
		}
	}
}

func TestSOARoundTrip(t *testing.T) {
	z := NewZone("family.name")
	soa := z.SOA()
	m := &Message{ID: 2, Response: true, Authority: []RR{soa}}
	wire, _ := m.Encode()
	d, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Authority[0]
	if got.MName != "ns.family.name" || got.RName != "hostmaster.family.name" || got.Serial != soa.Serial {
		t.Fatalf("SOA: %+v", got)
	}
}

func TestSRVRoundTrip(t *testing.T) {
	m := &Message{ID: 3, Answers: []RR{{
		Name: "_http._tcp.family.name", Type: TypeSRV, Class: ClassIN, TTL: 60,
		Priority: 10, Weight: 5, Port: 80, Target: "alice.family.name",
	}}}
	wire, _ := m.Encode()
	d, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Answers[0]
	if got.Priority != 10 || got.Weight != 5 || got.Port != 80 || got.Target != "alice.family.name" {
		t.Fatalf("SRV: %+v", got)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 5),
		// Pointer loop: name at offset 12 points to itself.
		func() []byte {
			b := make([]byte, 18)
			b[5] = 1 // one question
			b[12] = 0xc0
			b[13] = 12
			return b
		}(),
		// Label overruns the buffer.
		func() []byte {
			b := make([]byte, 14)
			b[5] = 1
			b[12] = 63
			return b
		}(),
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: garbage decoded successfully", i)
		}
	}
}

func TestDecodeNeverPanicsProperty(t *testing.T) {
	// The parser is the classic attack surface of Table 2; it must be
	// total: errors, never panics, on arbitrary input.
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", data, r)
			}
		}()
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(id uint16, a, b, c byte, host1, host2 string) bool {
		clean := func(s string) string {
			var sb strings.Builder
			for _, r := range s {
				if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
					sb.WriteRune(r)
				}
				if sb.Len() >= 20 {
					break
				}
			}
			if sb.Len() == 0 {
				return "x"
			}
			return sb.String()
		}
		name := clean(host1) + "." + clean(host2) + ".example"
		m := &Message{ID: id,
			Questions: []Question{{Name: name, Type: TypeA, Class: ClassIN}},
			Answers:   []RR{{Name: name, Type: TypeA, Class: ClassIN, TTL: 60, A: netstack.IPv4(a, b, c, 1)}},
		}
		wire, err := m.Encode()
		if err != nil {
			return false
		}
		d, err := Decode(wire)
		if err != nil {
			return false
		}
		return d.ID == id && d.Answers[0].A == netstack.IPv4(a, b, c, 1) &&
			d.Answers[0].Name == CanonicalName(name)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestZoneLookup(t *testing.T) {
	z := NewZone("family.name")
	z.Add(RR{Name: "alice.family.name", Type: TypeA, TTL: 60, A: netstack.IPv4(10, 0, 0, 20)})
	z.Add(RR{Name: "alice.family.name", Type: TypeTXT, TTL: 60, TXT: "v=1"})
	z.Add(RR{Name: "www.family.name", Type: TypeCNAME, TTL: 60, Target: "alice.family.name"})

	if got := z.Lookup("ALICE.family.name.", TypeA); len(got) != 1 {
		t.Fatalf("case-insensitive lookup: %v", got)
	}
	if got := z.Lookup("alice.family.name", TypeANY); len(got) != 2 {
		t.Fatalf("ANY lookup: %v", got)
	}
	if !z.Contains("deep.sub.family.name") || z.Contains("other.org") || z.Contains("notfamily.name") {
		t.Fatal("Contains wrong")
	}
	z.Remove("alice.family.name", TypeTXT)
	if got := z.Lookup("alice.family.name", TypeANY); len(got) != 1 {
		t.Fatalf("after remove: %v", got)
	}
	z.Remove("alice.family.name", TypeANY)
	if got := z.Lookup("alice.family.name", TypeANY); len(got) != 0 {
		t.Fatalf("after remove all: %v", got)
	}
}

// dnsPair wires a client and a server host on a bridge.
func dnsPair(t testing.TB) (*sim.Engine, *netstack.Host, *Server) {
	t.Helper()
	eng := sim.New(9)
	br := netsim.NewBridge(eng, "br", 10*time.Microsecond)
	nicC := netsim.NewNIC(eng, "client", netsim.MACFor(1))
	nicS := netsim.NewNIC(eng, "ns", netsim.MACFor(2))
	br.ConnectNIC(nicC, 150*time.Microsecond, 0)
	br.ConnectNIC(nicS, 20*time.Microsecond, 0)
	client := netstack.NewHost(eng, "client", nicC, netstack.IPv4(10, 0, 0, 9), netstack.LinuxNativeProfile())
	nsHost := netstack.NewHost(eng, "ns", nicS, netstack.IPv4(10, 0, 0, 1), netstack.MirageProfile())
	zone := NewZone("family.name")
	zone.Add(RR{Name: "alice.family.name", Type: TypeA, TTL: 60, A: netstack.IPv4(10, 0, 0, 20)})
	srv, err := Serve(nsHost, zone)
	if err != nil {
		t.Fatal(err)
	}
	return eng, client, srv
}

func TestServerOverUDP(t *testing.T) {
	eng, client, srv := dnsPair(t)
	c := &Client{Host: client}
	var resp *Message
	var rtt sim.Duration
	c.Query(srv.Host.IP, "alice.family.name", TypeA, 5*time.Second, func(m *Message, d sim.Duration, err error) {
		if err != nil {
			t.Fatal(err)
		}
		resp, rtt = m, d
	})
	eng.Run()
	if resp == nil || resp.RCode != RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Answers[0].A != netstack.IPv4(10, 0, 0, 20) {
		t.Fatalf("A = %v", resp.Answers[0].A)
	}
	if !resp.Authoritative {
		t.Fatal("response not authoritative")
	}
	if rtt > 5*time.Millisecond {
		t.Fatalf("query rtt = %v", rtt)
	}
	if srv.Queries != 1 {
		t.Fatalf("queries = %d", srv.Queries)
	}
}

func TestServerNXDomainAndRefused(t *testing.T) {
	eng, client, srv := dnsPair(t)
	c := &Client{Host: client}
	var rcode RCode
	c.Query(srv.Host.IP, "bob.family.name", TypeA, 5*time.Second, func(m *Message, d sim.Duration, err error) {
		if err != nil {
			t.Fatal(err)
		}
		rcode = m.RCode
	})
	eng.Run()
	if rcode != RCodeNXDomain {
		t.Fatalf("rcode = %v, want NXDOMAIN", rcode)
	}
	c.Query(srv.Host.IP, "outside.org", TypeA, 5*time.Second, func(m *Message, d sim.Duration, err error) {
		if err != nil {
			t.Fatal(err)
		}
		rcode = m.RCode
	})
	eng.Run()
	if rcode != RCodeRefused {
		t.Fatalf("rcode = %v, want REFUSED", rcode)
	}
}

func TestServerCNAMEChase(t *testing.T) {
	eng, client, srv := dnsPair(t)
	srv.Zone.Add(RR{Name: "www.family.name", Type: TypeCNAME, TTL: 60, Target: "alice.family.name"})
	c := &Client{Host: client}
	var answers []RR
	c.Query(srv.Host.IP, "www.family.name", TypeA, 5*time.Second, func(m *Message, d sim.Duration, err error) {
		if err != nil {
			t.Fatal(err)
		}
		answers = m.Answers
	})
	eng.Run()
	if len(answers) != 2 || answers[0].Type != TypeCNAME || answers[1].Type != TypeA {
		t.Fatalf("answers = %+v", answers)
	}
}

func TestServerIntercept(t *testing.T) {
	// The Jitsu hook: the interceptor sees the query first and can
	// synthesise answers (and launch unikernels as a side effect).
	eng, client, srv := dnsPair(t)
	launched := ""
	ghost := RR{Name: "ghost.family.name", Type: TypeA, Class: ClassIN, TTL: 0, A: netstack.IPv4(10, 0, 0, 77)}
	srv.Intercept = func(name []byte, typ Type) (Verdict, *RR) {
		if typ == TypeA && string(name) == ghost.Name {
			launched = string(name)
			return VerdictAnswer, &ghost
		}
		return VerdictMiss, nil
	}
	c := &Client{Host: client}
	var got netstack.IP
	c.Query(srv.Host.IP, "ghost.family.name", TypeA, 5*time.Second, func(m *Message, d sim.Duration, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = m.Answers[0].A
	})
	eng.Run()
	if launched != "ghost.family.name" || got != netstack.IPv4(10, 0, 0, 77) {
		t.Fatalf("interceptor: launched=%q got=%v", launched, got)
	}
}

func TestServFailEncoding(t *testing.T) {
	// §3.3.2: "multiple ARM boards could ... return SERVFAIL responses
	// if they do not have resources to serve the traffic."
	m := &Message{ID: 9, Response: true, RCode: RCodeServFail}
	wire, _ := m.Encode()
	d, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if d.RCode != RCodeServFail {
		t.Fatalf("rcode = %v", d.RCode)
	}
	if RCodeServFail.String() != "SERVFAIL" {
		t.Fatal("string form")
	}
}

// TestZoneDelegationReferral pins the zone-cut behaviour behind
// Zone.Delegate: a query at or below a delegated child is answered
// with a non-authoritative referral — the child's NS records in the
// authority section plus glue addresses — while names outside the cut
// still resolve (or NXDomain) authoritatively. The federation root
// leans on this to point resolvers at member clusters.
func TestZoneDelegationReferral(t *testing.T) {
	zone := NewZone("family.name")
	zone.Add(RR{Name: "alice.family.name", Type: TypeA, TTL: 60, A: netstack.IPv4(10, 0, 0, 20)})
	zone.Delegate("c0.family.name", "ns.c0.family.name", netstack.IPv4(10, 254, 0, 10))
	s := &Server{Zone: zone}

	ask := func(name string, typ Type) *Message {
		q := &Message{ID: 7, Questions: []Question{{Name: name, Type: typ, Class: ClassIN}}}
		return s.Answer(q)
	}

	// Below the cut: referral, not NXDomain, not authoritative.
	for _, name := range []string{"svc.c0.family.name", "c0.family.name", "deep.sub.c0.family.name"} {
		resp := ask(name, TypeA)
		if resp.RCode != RCodeNoError {
			t.Fatalf("%s: rcode = %v, want referral NoError", name, resp.RCode)
		}
		if resp.Authoritative {
			t.Errorf("%s: referral marked authoritative", name)
		}
		if len(resp.Answers) != 0 {
			t.Errorf("%s: referral carries %d answers, want 0", name, len(resp.Answers))
		}
		if len(resp.Authority) != 1 || resp.Authority[0].Type != TypeNS ||
			resp.Authority[0].Target != "ns.c0.family.name" {
			t.Errorf("%s: authority = %+v, want the c0 NS record", name, resp.Authority)
		}
		if len(resp.Additional) != 1 || resp.Additional[0].A != netstack.IPv4(10, 254, 0, 10) {
			t.Errorf("%s: additional = %+v, want the glue A", name, resp.Additional)
		}
	}

	// Outside the cut the zone still answers authoritatively.
	if resp := ask("alice.family.name", TypeA); len(resp.Answers) != 1 || !resp.Authoritative {
		t.Fatalf("in-zone answer broken by delegation: %+v", resp)
	}
	if resp := ask("ghost.family.name", TypeA); resp.RCode != RCodeNXDomain {
		t.Fatalf("off-cut miss = %v, want NXDomain", resp.RCode)
	}

	// The fast path must serve the byte-identical referral.
	q := &Message{ID: 9, Questions: []Question{{Name: "svc.c0.family.name", Type: TypeA, Class: ClassIN}}}
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var fast []byte
	s.ServeWire(wire, func(w []byte) { fast = append([]byte(nil), w...) })
	slow, err := s.Answer(q).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fast, slow) {
		t.Fatalf("fast-path referral differs from slow path:\n fast %x\n slow %x", fast, slow)
	}

	// Removing the delegation restores NXDomain below the old cut.
	zone.Remove("c0.family.name", TypeNS)
	if resp := ask("svc.c0.family.name", TypeA); resp.RCode != RCodeNXDomain {
		t.Fatalf("post-removal = %v, want NXDomain", resp.RCode)
	}
}

// A query the server cannot decode is refused under the query's own ID
// (and RD): a resolver that matches replies on ID — ours does — would
// drop an ID-0 FORMERR and wait out its timeout.
func TestFormErrCarriesQueryID(t *testing.T) {
	q := &Message{ID: 0xbeef, RecursionDesired: true,
		Questions: []Question{{Name: "alice.family.name", Type: TypeA, Class: ClassIN}}}
	whole, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	badPointer := append(bytes.Clone(whole[:12]), 0xc0, 12, 0, 1, 0, 1) // the name points at itself
	for name, wire := range map[string][]byte{
		"truncated question": whole[:len(whole)-3],
		"bad pointer":        badPointer,
	} {
		if _, err := Decode(wire); err == nil {
			t.Fatalf("%s: decodes", name)
		}
		var got *Message
		testZoneServerForFuzz().ServeWire(wire, func(w []byte) {
			if got, err = Decode(w); err != nil {
				t.Fatalf("%s: reply does not decode: %v", name, err)
			}
		})
		if got == nil || got.ID != 0xbeef || !got.Response || got.RCode != RCodeFormErr || !got.RecursionDesired {
			t.Errorf("%s: reply %+v, want FORMERR under ID 0xbeef with RD", name, got)
		}
	}
	// Shorter than a header: there is no ID to echo.
	var got *Message
	testZoneServerForFuzz().ServeWire(whole[:7], func(w []byte) { got, _ = Decode(w) })
	if got == nil || got.ID != 0 || got.RCode != RCodeFormErr {
		t.Errorf("7-byte datagram: reply %+v, want FORMERR under ID 0", got)
	}
}
