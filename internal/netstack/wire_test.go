package netstack

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"jitsu/internal/netsim"
)

func TestParseIP(t *testing.T) {
	cases := []struct {
		in string
		ok bool
	}{
		{"10.0.0.1", true}, {"255.255.255.255", true}, {"0.0.0.0", true},
		{"256.1.1.1", false}, {"1.2.3", false}, {"1.2.3.4.5", false},
		{"", false}, {"a.b.c.d", false}, {"1..2.3", false},
	}
	for _, c := range cases {
		ip, ok := ParseIP(c.in)
		if ok != c.ok {
			t.Errorf("ParseIP(%q) ok=%v, want %v", c.in, ok, c.ok)
		}
		if ok && ip.String() != c.in {
			t.Errorf("round trip %q -> %q", c.in, ip.String())
		}
	}
}

// Tests render headers as the stack does, with EncodeInto, each into a
// fresh buffer of its exact size with the payload behind the header.

func ethernetFrame(e Ethernet, payload []byte) []byte {
	frame := append(make([]byte, EthernetHeaderLen, EthernetHeaderLen+len(payload)), payload...)
	e.EncodeInto(frame)
	return frame
}

func arpPayload(a ARPPacket) []byte {
	buf := make([]byte, ARPLen)
	a.EncodeInto(buf)
	return buf
}

func ipv4Packet(h IPv4Header, payload []byte) []byte {
	pkt := append(make([]byte, IPv4HeaderLen, IPv4HeaderLen+len(payload)), payload...)
	h.EncodeInto(pkt)
	return pkt
}

func icmpMessage(m ICMPEcho) []byte {
	buf := make([]byte, icmpHeaderLen+len(m.Data))
	m.EncodeInto(buf)
	return buf
}

func udpDatagram(u UDPHeader, src, dst IP, payload []byte) []byte {
	buf := make([]byte, UDPHeaderLen+len(payload))
	u.EncodeInto(buf, src, dst, payload)
	return buf
}

func tcpSegment(s TCPSegment, src, dst IP, payload []byte) []byte {
	buf := make([]byte, s.headerLen()+len(payload))
	s.EncodeInto(buf, src, dst, payload)
	return buf
}

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{Dst: netsim.MACFor(1), Src: netsim.MACFor(2), EtherType: EtherTypeIPv4}
	frame := ethernetFrame(e, []byte("payload"))
	var d Ethernet
	if err := d.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if d.Dst != e.Dst || d.Src != e.Src || d.EtherType != e.EtherType {
		t.Fatalf("decoded %+v", d)
	}
	if string(d.Payload()) != "payload" {
		t.Fatalf("payload %q", d.Payload())
	}
	if err := d.DecodeFromBytes(frame[:10]); err != ErrTruncated {
		t.Fatalf("truncated err = %v", err)
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := ARPPacket{
		Op: ARPRequest, SenderMAC: netsim.MACFor(5), SenderIP: IPv4(10, 0, 0, 5),
		TargetIP: IPv4(10, 0, 0, 9),
	}
	var d ARPPacket
	if err := d.DecodeFromBytes(arpPayload(a)); err != nil {
		t.Fatal(err)
	}
	if d.Op != ARPRequest || d.SenderIP != a.SenderIP || d.TargetIP != a.TargetIP || d.SenderMAC != a.SenderMAC {
		t.Fatalf("decoded %+v", d)
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	h := IPv4Header{Protocol: ProtoTCP, Src: IPv4(10, 0, 0, 1), Dst: IPv4(10, 0, 0, 2), ID: 42}
	pkt := ipv4Packet(h, []byte("data"))
	var d IPv4Header
	if err := d.DecodeFromBytes(pkt); err != nil {
		t.Fatal(err)
	}
	if d.Src != h.Src || d.Dst != h.Dst || d.Protocol != ProtoTCP || d.ID != 42 {
		t.Fatalf("decoded %+v", d)
	}
	if string(d.Payload()) != "data" {
		t.Fatalf("payload %q", d.Payload())
	}
	// Corrupt one byte: checksum must catch it.
	pkt[15] ^= 0xff
	if err := d.DecodeFromBytes(pkt); err != ErrBadChecksum {
		t.Fatalf("corrupted err = %v", err)
	}
}

func TestIPv4TotalLengthBoundsPayload(t *testing.T) {
	h := IPv4Header{Protocol: ProtoUDP, Src: IPv4(1, 1, 1, 1), Dst: IPv4(2, 2, 2, 2)}
	pkt := ipv4Packet(h, []byte("abc"))
	// Ethernet padding: extra trailing bytes must not leak into payload.
	padded := append(pkt, 0, 0, 0, 0)
	var d IPv4Header
	if err := d.DecodeFromBytes(padded); err != nil {
		t.Fatal(err)
	}
	if string(d.Payload()) != "abc" {
		t.Fatalf("padded payload %q", d.Payload())
	}
}

func TestICMPRoundTrip(t *testing.T) {
	m := ICMPEcho{Type: ICMPEchoRequest, ID: 7, Seq: 9, Data: []byte{1, 2, 3}}
	var d ICMPEcho
	if err := d.DecodeFromBytes(icmpMessage(m)); err != nil {
		t.Fatal(err)
	}
	if d.Type != m.Type || d.ID != 7 || d.Seq != 9 || !bytes.Equal(d.Data, m.Data) {
		t.Fatalf("decoded %+v", d)
	}
	bad := icmpMessage(m)
	bad[9] ^= 1
	if err := d.DecodeFromBytes(bad); err != ErrBadChecksum {
		t.Fatalf("corrupted err = %v", err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	src, dst := IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2)
	u := UDPHeader{SrcPort: 5353, DstPort: 53}
	dgram := udpDatagram(u, src, dst, []byte("query"))
	var d UDPHeader
	if err := d.DecodeFromBytes(dgram, src, dst); err != nil {
		t.Fatal(err)
	}
	if d.SrcPort != 5353 || d.DstPort != 53 || string(d.Payload()) != "query" {
		t.Fatalf("decoded %+v payload %q", d, d.Payload())
	}
	// Wrong pseudo-header (different dst IP) must fail the checksum.
	if err := d.DecodeFromBytes(dgram, src, IPv4(9, 9, 9, 9)); err != ErrBadChecksum {
		t.Fatalf("pseudo-header err = %v", err)
	}
}

func TestTCPSegmentRoundTrip(t *testing.T) {
	src, dst := IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2)
	seg := TCPSegment{
		SrcPort: 49152, DstPort: 80, Seq: 1000, Ack: 2000,
		Flags: FlagSYN | FlagACK, Window: 65535, MSS: 1460,
	}
	wire := tcpSegment(seg, src, dst, nil)
	var d TCPSegment
	if err := d.DecodeFromBytes(wire, src, dst); err != nil {
		t.Fatal(err)
	}
	if d.SrcPort != 49152 || d.DstPort != 80 || d.Seq != 1000 || d.Ack != 2000 {
		t.Fatalf("decoded %+v", d)
	}
	if d.Flags != FlagSYN|FlagACK || d.MSS != 1460 {
		t.Fatalf("flags/MSS %+v", d)
	}
	// Data segment without options.
	seg2 := TCPSegment{SrcPort: 1, DstPort: 2, Seq: 5, Ack: 6, Flags: FlagACK | FlagPSH, Window: 100}
	wire2 := tcpSegment(seg2, src, dst, []byte("hello"))
	if err := d.DecodeFromBytes(wire2, src, dst); err != nil {
		t.Fatal(err)
	}
	if string(d.Payload()) != "hello" || d.MSS != 0 {
		t.Fatalf("payload %q MSS %d", d.Payload(), d.MSS)
	}
	// Corruption.
	wire2[len(wire2)-1] ^= 1
	if err := d.DecodeFromBytes(wire2, src, dst); err != ErrBadChecksum {
		t.Fatalf("corrupted err = %v", err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7 is 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Fatalf("Checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	data := []byte{0x01, 0x02, 0x03}
	sum := Checksum(data)
	// Verify by appending the checksum and re-checking totals to zero,
	// with implicit zero padding of the odd byte.
	verify := []byte{0x01, 0x02, 0x03, 0x00, byte(sum >> 8), byte(sum)}
	if Checksum(verify) != 0 {
		t.Fatal("odd-length checksum inconsistent")
	}
}

// refChecksum is the Internet checksum as it was computed before it
// summed eight bytes per step: big-endian 16-bit words one at a time
// into a uint32, the odd byte as a word's high half, fold, complement.
// parts are summed back to back, each with its own odd-byte rule — how
// PseudoChecksum treated the pseudo-header and the segment.
func refChecksum(parts ...[]byte) uint16 {
	var sum uint32
	for _, data := range parts {
		for i := 0; i+1 < len(data); i += 2 {
			sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
		}
		if len(data)%2 == 1 {
			sum += uint32(data[len(data)-1]) << 8
		}
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// TestChecksumMatchesReference compares both checksums with the
// word-at-a-time loop on seeded buffers of every length around the
// eight-byte step and around a full segment, and on all-0xff buffers,
// where every addition carries.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var lengths []int
	for n := 0; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	for n := 1400; n <= 1500; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, fill := range []string{"seeded", "seeded", "seeded", "0xff"} {
			data := bytes.Repeat([]byte{0xff}, n)
			src, dst := IP{0xff, 0xff, 0xff, 0xff}, IP{0xff, 0xff, 0xff, 0xff}
			if fill == "seeded" {
				rng.Read(data)
				rng.Read(src[:])
				rng.Read(dst[:])
			}
			if got, want := Checksum(data), refChecksum(data); got != want {
				t.Fatalf("Checksum of %d %s bytes = %#04x, want %#04x", n, fill, got, want)
			}
			pseudo := []byte{src[0], src[1], src[2], src[3], dst[0], dst[1], dst[2], dst[3], 0, ProtoTCP, byte(n >> 8), byte(n)}
			if got, want := PseudoChecksum(src, dst, ProtoTCP, data), refChecksum(pseudo, data); got != want {
				t.Fatalf("PseudoChecksum of %d %s bytes = %#04x, want %#04x", n, fill, got, want)
			}
		}
	}
	data := make([]byte, 1460)
	if allocs := testing.AllocsPerRun(100, func() { PseudoChecksum(IP{10, 0, 0, 1}, IP{10, 0, 0, 2}, ProtoTCP, data) }); allocs != 0 {
		t.Fatalf("PseudoChecksum allocates %.0f times per segment", allocs)
	}
}

// Property: every TCP segment we encode decodes to the same header and
// payload, for arbitrary field values and payloads.
func TestTCPEncodeDecodeProperty(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags byte, wnd uint16, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		src, dst := IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2)
		seg := TCPSegment{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: flags, Window: wnd}
		wire := tcpSegment(seg, src, dst, payload)
		var d TCPSegment
		if err := d.DecodeFromBytes(wire, src, dst); err != nil {
			return false
		}
		return d.SrcPort == sp && d.DstPort == dp && d.Seq == seq &&
			d.Ack == ack && d.Flags == flags && d.Window == wnd &&
			bytes.Equal(d.Payload(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: IPv4 header checksums detect any single-byte corruption.
func TestIPv4ChecksumDetectsCorruptionProperty(t *testing.T) {
	f := func(idx uint8, flip uint8) bool {
		if flip == 0 {
			return true
		}
		h := IPv4Header{Protocol: ProtoTCP, Src: IPv4(10, 0, 0, 1), Dst: IPv4(10, 0, 0, 2)}
		pkt := ipv4Packet(h, nil)
		i := int(idx) % IPv4HeaderLen
		pkt[i] ^= flip
		var d IPv4Header
		err := d.DecodeFromBytes(pkt)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTCBRoundTrip(t *testing.T) {
	tcb := &TCB{
		State:   TCBStateSYNACK,
		LocalIP: IPv4(10, 0, 0, 20), LocalPort: 80,
		RemoteIP: IPv4(10, 0, 0, 9), RemotePort: 49152,
		ISS: 7, IRS: 9, SndNxt: 8, RcvNxt: 10, Window: 65535,
		Buffered: []byte("GET / HTTP/1.0\r\n"),
	}
	enc := tcb.Encode()
	dec, err := ParseTCB(enc)
	if err != nil {
		t.Fatalf("ParseTCB(%q): %v", enc, err)
	}
	if *&dec.State != tcb.State || dec.LocalIP != tcb.LocalIP || dec.LocalPort != tcb.LocalPort ||
		dec.RemoteIP != tcb.RemoteIP || dec.RemotePort != tcb.RemotePort ||
		dec.ISS != tcb.ISS || dec.IRS != tcb.IRS || dec.SndNxt != tcb.SndNxt ||
		dec.RcvNxt != tcb.RcvNxt || dec.Window != tcb.Window ||
		!bytes.Equal(dec.Buffered, tcb.Buffered) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", tcb, dec)
	}
}

func TestParseTCBErrors(t *testing.T) {
	bad := []string{
		"", "()", "(state)", "not-sexp",
		"((state ESTABLISHED)(sport 99999))",   // port overflow
		"((state ESTABLISHED)(src 300.0.0.1))", // bad IP
		"((state ESTABLISHED)(buf zz))",        // bad hex
		"((src 10.0.0.1))",                     // missing state
	}
	for _, s := range bad {
		if _, err := ParseTCB(s); err == nil {
			t.Errorf("ParseTCB(%q) should fail", s)
		}
	}
	// Unknown fields are tolerated.
	if _, err := ParseTCB("((state SYN)(future stuff))"); err != nil {
		t.Errorf("unknown field should be ignored: %v", err)
	}
}

// Property: TCB serialisation round-trips for arbitrary field values.
func TestTCBRoundTripProperty(t *testing.T) {
	f := func(iss, irs, snd, rcv uint32, lp, rp, wnd uint16, buf []byte) bool {
		if len(buf) > 512 {
			buf = buf[:512]
		}
		tcb := &TCB{State: TCBStateEstablished,
			LocalIP: IPv4(192, 168, 1, 20), LocalPort: lp,
			RemoteIP: IPv4(192, 168, 1, 9), RemotePort: rp,
			ISS: iss, IRS: irs, SndNxt: snd, RcvNxt: rcv, Window: wnd,
			Buffered: buf}
		dec, err := ParseTCB(tcb.Encode())
		if err != nil {
			return false
		}
		return dec.ISS == iss && dec.IRS == irs && dec.SndNxt == snd &&
			dec.RcvNxt == rcv && dec.LocalPort == lp && dec.RemotePort == rp &&
			dec.Window == wnd && bytes.Equal(dec.Buffered, buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPCodec(t *testing.T) {
	req, ok := parseRequest([]byte("GET /photos HTTP/1.0\r\nHost: alice.family.name\r\n\r\n"))
	if !ok || req.Method != "GET" || req.Path != "/photos" || req.Header.Get("host") != "alice.family.name" {
		t.Fatalf("parseRequest: %+v ok=%v", req, ok)
	}
	if _, ok := parseRequest([]byte("GET / HTTP/1.0\r\nHost: x\r\n")); ok {
		t.Fatal("incomplete request parsed")
	}
	resp := &HTTPResponse{Status: 200, Header: "X-Svc: jitsu", Body: []byte("hello")}
	dec, ok := parseResponse(appendResponse(nil, resp))
	if !ok || dec.Status != 200 || string(dec.Body) != "hello" || dec.Header.Get("x-svc") != "jitsu" {
		t.Fatalf("response round trip: %+v ok=%v", dec, ok)
	}
	// Partial body: not complete yet.
	enc := appendResponse(nil, resp)
	if _, ok := parseResponse(enc[:len(enc)-1]); ok {
		t.Fatal("partial body parsed as complete")
	}
}
