// Package netstack is an event-driven TCP/IP stack over the netsim
// fabric — the stand-in for the OCaml mirage-tcpip stack the paper's
// unikernels run. It provides Ethernet, ARP, IPv4, ICMP, UDP and TCP,
// plus a minimal HTTP layer, and — crucially for Synjitsu (§3.3.1) — TCP
// control blocks that can be serialised through XenStore and resumed in
// another stack instance.
//
// Decoding follows the layer-struct style of gopacket's DecodingLayer:
// preallocated header structs with DecodeFromBytes that never allocate,
// and explicit zero-copy payload sub-slices. Encoding mirrors it: every
// header has one encoder, an EncodeInto that renders into a caller's
// buffer.
//
// Life of a frame. A segment or datagram is rendered transport → IPv4
// → Ethernet straight into the sending Host's one scratch frame
// (Host.txFrame, Host.sendIPv4). netsim.NIC.Send copies it into the
// fabric's slab — a frame's only cost, its bytes' share of a 16 KiB
// allocation — and that is the point it becomes immutable: the scratch
// is free for the next send, the copy is never written or reused. It
// then crosses three pooled hops, each one engine event with no
// allocation: sender's link, bridge, receiver's link (netsim hop
// records), and the receiving Host's rxFrame books a fourth pooled
// record that charges the stack's processing cost and calls
// handleFrame. Decoded payloads are sub-slices of that immutable frame,
// so a UDP handler and a TCP connection's application (ConnHandler.Data)
// may keep what they are handed — and keep the frame's slab alive for as
// long as they do; the Host's own decoders let go when the frame has
// been handled. Three paths hold bytes past the call that brought them —
// the ARP-pending queue, loopback, and data parked on a connection
// nobody takes data from yet — and each takes its own copy.
// A connection's application is one ConnHandler, its timers' Handler
// the connection itself, and a message is rendered straight into the
// send buffer: running a fetch binds no callback and copies no message.
//
// What a closed connection keeps. A fetch's connection is live for a
// millisecond or two and then sits in TIME_WAIT for 2 s, so a host under
// load holds thousands of TIME_WAIT connections and a handful of live
// ones: they are the stack's resident memory. enterTimeWait drops all
// but the application, which the expiry still owes Closed; HTTPGet
// drops the response bytes and its caller when it finishes, and an HTTP
// server connection hands itself to hangUp, of size zero. What stays
// for the 2 s is the TCPConn, its demux entry and its one timer.
package netstack

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strconv"

	"jitsu/internal/netsim"
)

// Wire-format errors.
var (
	ErrTruncated   = errors.New("netstack: truncated packet")
	ErrBadChecksum = errors.New("netstack: bad checksum")
	ErrBadVersion  = errors.New("netstack: bad IP version")
)

// IP is an IPv4 address, comparable and usable as a map key.
type IP [4]byte

// String renders dotted quad.
func (ip IP) String() string { return string(ip.appendTo(make([]byte, 0, 15))) }

// appendTo appends the dotted quad to b.
func (ip IP) appendTo(b []byte) []byte {
	for i, octet := range ip {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(octet), 10)
	}
	return b
}

// IPv4 builds an address from octets.
func IPv4(a, b, c, d byte) IP { return IP{a, b, c, d} }

// ParseIP parses a dotted quad; it returns false on malformed input.
func ParseIP(s string) (IP, bool) {
	var ip IP
	part, idx := 0, 0
	seen := false
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if !seen || idx > 3 {
				return IP{}, false
			}
			ip[idx] = byte(part)
			idx++
			part, seen = 0, false
			continue
		}
		ch := s[i]
		if ch < '0' || ch > '9' {
			return IP{}, false
		}
		part = part*10 + int(ch-'0')
		if part > 255 {
			return IP{}, false
		}
		seen = true
	}
	if idx != 4 {
		return IP{}, false
	}
	return ip, true
}

// EtherType values the stack speaks.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
)

// EthernetHeaderLen is the fixed 14-byte header size.
const EthernetHeaderLen = 14

// Ethernet is the link-layer header.
type Ethernet struct {
	Dst, Src  netsim.MAC
	EtherType uint16
	payload   []byte
}

// DecodeFromBytes parses the header; Payload returns the rest zero-copy.
func (e *Ethernet) DecodeFromBytes(data []byte) error {
	if len(data) < EthernetHeaderLen {
		return ErrTruncated
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = binary.BigEndian.Uint16(data[12:14])
	e.payload = data[EthernetHeaderLen:]
	return nil
}

// Payload returns the bytes after the header.
func (e *Ethernet) Payload() []byte { return e.payload }

// EncodeInto writes the header into frame[:EthernetHeaderLen], in front
// of a payload already rendered behind it.
func (e *Ethernet) EncodeInto(frame []byte) {
	copy(frame[0:6], e.Dst[:])
	copy(frame[6:12], e.Src[:])
	binary.BigEndian.PutUint16(frame[12:14], e.EtherType)
}

// ARP operation codes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARPPacket is an Ethernet/IPv4 ARP message.
type ARPPacket struct {
	Op                 uint16
	SenderMAC          netsim.MAC
	SenderIP, TargetIP IP
	TargetMAC          netsim.MAC
}

// ARPLen is the size of an Ethernet/IPv4 ARP payload.
const ARPLen = 28

// DecodeFromBytes parses an ARP payload.
func (a *ARPPacket) DecodeFromBytes(data []byte) error {
	if len(data) < ARPLen {
		return ErrTruncated
	}
	if binary.BigEndian.Uint16(data[0:2]) != 1 || // hardware: ethernet
		binary.BigEndian.Uint16(data[2:4]) != EtherTypeIPv4 ||
		data[4] != 6 || data[5] != 4 {
		return fmt.Errorf("netstack: unsupported ARP format")
	}
	a.Op = binary.BigEndian.Uint16(data[6:8])
	copy(a.SenderMAC[:], data[8:14])
	copy(a.SenderIP[:], data[14:18])
	copy(a.TargetMAC[:], data[18:24])
	copy(a.TargetIP[:], data[24:28])
	return nil
}

// EncodeInto renders the payload into buf[:ARPLen].
func (a *ARPPacket) EncodeInto(buf []byte) {
	binary.BigEndian.PutUint16(buf[0:2], 1)
	binary.BigEndian.PutUint16(buf[2:4], EtherTypeIPv4)
	buf[4], buf[5] = 6, 4
	binary.BigEndian.PutUint16(buf[6:8], a.Op)
	copy(buf[8:14], a.SenderMAC[:])
	copy(buf[14:18], a.SenderIP[:])
	copy(buf[18:24], a.TargetMAC[:])
	copy(buf[24:28], a.TargetIP[:])
}

// IP protocol numbers.
const (
	ProtoICMP byte = 1
	ProtoTCP  byte = 6
	ProtoUDP  byte = 17
)

// IPv4HeaderLen is the option-free header size (the stack never emits
// options).
const IPv4HeaderLen = 20

// IPv4Header is the network-layer header.
type IPv4Header struct {
	TTL      byte
	Protocol byte
	Src, Dst IP
	ID       uint16
	totalLen int
	payload  []byte
}

// DecodeFromBytes parses and checksums the header.
func (h *IPv4Header) DecodeFromBytes(data []byte) error {
	if len(data) < IPv4HeaderLen {
		return ErrTruncated
	}
	if data[0]>>4 != 4 {
		return ErrBadVersion
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(data) < ihl {
		return ErrTruncated
	}
	if Checksum(data[:ihl]) != 0 {
		return ErrBadChecksum
	}
	h.totalLen = int(binary.BigEndian.Uint16(data[2:4]))
	if h.totalLen < ihl || h.totalLen > len(data) {
		return ErrTruncated
	}
	h.ID = binary.BigEndian.Uint16(data[4:6])
	h.TTL = data[8]
	h.Protocol = data[9]
	copy(h.Src[:], data[12:16])
	copy(h.Dst[:], data[16:20])
	h.payload = data[ihl:h.totalLen]
	return nil
}

// Payload returns the bytes covered by TotalLength after the header.
func (h *IPv4Header) Payload() []byte { return h.payload }

// EncodeInto writes the header, with a correct checksum, into
// pkt[:IPv4HeaderLen], in front of a payload already rendered behind
// it: len(pkt) is the packet's total length.
func (h *IPv4Header) EncodeInto(pkt []byte) {
	pkt[0], pkt[1] = 0x45, 0
	binary.BigEndian.PutUint16(pkt[2:4], uint16(len(pkt)))
	binary.BigEndian.PutUint16(pkt[4:6], h.ID)
	pkt[6], pkt[7] = 0, 0
	ttl := h.TTL
	if ttl == 0 {
		ttl = 64
	}
	pkt[8] = ttl
	pkt[9] = h.Protocol
	pkt[10], pkt[11] = 0, 0
	copy(pkt[12:16], h.Src[:])
	copy(pkt[16:20], h.Dst[:])
	binary.BigEndian.PutUint16(pkt[10:12], Checksum(pkt[:IPv4HeaderLen]))
}

// ICMP types.
const (
	ICMPEchoReply   byte = 0
	ICMPEchoRequest byte = 8
)

// icmpHeaderLen is the echo header in front of Data.
const icmpHeaderLen = 8

// ICMPEcho is an echo request/reply message.
type ICMPEcho struct {
	Type    byte
	ID, Seq uint16
	Data    []byte
}

// DecodeFromBytes parses and checksums an ICMP message.
func (m *ICMPEcho) DecodeFromBytes(data []byte) error {
	if len(data) < icmpHeaderLen {
		return ErrTruncated
	}
	if Checksum(data) != 0 {
		return ErrBadChecksum
	}
	m.Type = data[0]
	m.ID = binary.BigEndian.Uint16(data[4:6])
	m.Seq = binary.BigEndian.Uint16(data[6:8])
	m.Data = data[icmpHeaderLen:]
	return nil
}

// EncodeInto renders the message into buf, which is exactly 8 header
// bytes plus len(m.Data) long.
func (m *ICMPEcho) EncodeInto(buf []byte) {
	buf[0], buf[1], buf[2], buf[3] = m.Type, 0, 0, 0
	binary.BigEndian.PutUint16(buf[4:6], m.ID)
	binary.BigEndian.PutUint16(buf[6:8], m.Seq)
	copy(buf[icmpHeaderLen:], m.Data)
	binary.BigEndian.PutUint16(buf[2:4], Checksum(buf))
}

// UDPHeader is the transport header for datagrams.
type UDPHeader struct {
	SrcPort, DstPort uint16
	payload          []byte
}

// UDPHeaderLen is the fixed UDP header size.
const UDPHeaderLen = 8

// DecodeFromBytes parses a UDP datagram, verifying the checksum against
// the pseudo-header when present (non-zero).
func (u *UDPHeader) DecodeFromBytes(data []byte, src, dst IP) error {
	if len(data) < UDPHeaderLen {
		return ErrTruncated
	}
	ulen := int(binary.BigEndian.Uint16(data[4:6]))
	if ulen < UDPHeaderLen || ulen > len(data) {
		return ErrTruncated
	}
	if binary.BigEndian.Uint16(data[6:8]) != 0 {
		if PseudoChecksum(src, dst, ProtoUDP, data[:ulen]) != 0 {
			return ErrBadChecksum
		}
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.payload = data[UDPHeaderLen:ulen]
	return nil
}

// Payload returns the datagram body.
func (u *UDPHeader) Payload() []byte { return u.payload }

// EncodeInto renders the datagram into buf, which is exactly
// UDPHeaderLen+len(payload) long.
func (u *UDPHeader) EncodeInto(buf []byte, src, dst IP, payload []byte) {
	binary.BigEndian.PutUint16(buf[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(buf[2:4], u.DstPort)
	binary.BigEndian.PutUint16(buf[4:6], uint16(len(buf)))
	buf[6], buf[7] = 0, 0 // the checksum is computed with its field zero
	copy(buf[UDPHeaderLen:], payload)
	ck := PseudoChecksum(src, dst, ProtoUDP, buf)
	if ck == 0 {
		ck = 0xffff
	}
	binary.BigEndian.PutUint16(buf[6:8], ck)
}

// TCP flags.
const (
	FlagFIN byte = 1 << 0
	FlagSYN byte = 1 << 1
	FlagRST byte = 1 << 2
	FlagPSH byte = 1 << 3
	FlagACK byte = 1 << 4
)

// TCPSegment is the transport header plus payload view for TCP.
type TCPSegment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            byte
	Window           uint16
	MSS              uint16 // from the SYN option; 0 if absent
	payload          []byte
}

// TCPHeaderLen is the option-free header size.
const TCPHeaderLen = 20

// DecodeFromBytes parses and checksums a TCP segment.
func (t *TCPSegment) DecodeFromBytes(data []byte, src, dst IP) error {
	if len(data) < TCPHeaderLen {
		return ErrTruncated
	}
	off := int(data[12]>>4) * 4
	if off < TCPHeaderLen || off > len(data) {
		return ErrTruncated
	}
	if PseudoChecksum(src, dst, ProtoTCP, data) != 0 {
		return ErrBadChecksum
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.Flags = data[13]
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.MSS = 0
	// Scan options for MSS (kind 2, len 4).
	opts := data[TCPHeaderLen:off]
	for len(opts) > 0 {
		switch opts[0] {
		case 0: // end of options
			opts = nil
		case 1: // nop
			opts = opts[1:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				return ErrTruncated
			}
			if opts[0] == 2 && opts[1] == 4 {
				t.MSS = binary.BigEndian.Uint16(opts[2:4])
			}
			opts = opts[opts[1]:]
		}
	}
	t.payload = data[off:]
	return nil
}

// Payload returns the segment body.
func (t *TCPSegment) Payload() []byte { return t.payload }

// headerLen is the encoded header size: the MSS option adds 4 bytes.
func (t *TCPSegment) headerLen() int {
	if t.MSS != 0 {
		return TCPHeaderLen + 4
	}
	return TCPHeaderLen
}

// EncodeInto renders the segment into buf, which is exactly
// TCPHeaderLen (plus 4 for the MSS option when t.MSS != 0) plus
// len(payload) long.
func (t *TCPSegment) EncodeInto(buf []byte, src, dst IP, payload []byte) {
	hlen := t.headerLen()
	binary.BigEndian.PutUint16(buf[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(buf[2:4], t.DstPort)
	binary.BigEndian.PutUint32(buf[4:8], t.Seq)
	binary.BigEndian.PutUint32(buf[8:12], t.Ack)
	buf[12] = byte(hlen/4) << 4
	buf[13] = t.Flags
	binary.BigEndian.PutUint16(buf[14:16], t.Window)
	buf[16], buf[17], buf[18], buf[19] = 0, 0, 0, 0 // checksum (computed below), urgent pointer
	if t.MSS != 0 {
		buf[TCPHeaderLen] = 2
		buf[TCPHeaderLen+1] = 4
		binary.BigEndian.PutUint16(buf[TCPHeaderLen+2:TCPHeaderLen+4], t.MSS)
	}
	copy(buf[hlen:], payload)
	binary.BigEndian.PutUint16(buf[16:18], PseudoChecksum(src, dst, ProtoTCP, buf))
}

// Checksum computes the Internet checksum (RFC 1071) of data, assuming
// the checksum field within is zero (or returns 0 when verifying data
// that includes a correct checksum).
func Checksum(data []byte) uint16 { return foldSum(sumWords(0, data)) }

// PseudoChecksum computes the transport checksum over the IPv4
// pseudo-header plus segment.
func PseudoChecksum(src, dst IP, proto byte, segment []byte) uint16 {
	var pseudo [12]byte
	copy(pseudo[0:4], src[:])
	copy(pseudo[4:8], dst[:])
	pseudo[9] = proto
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(segment)))
	return foldSum(sumWords(sumWords(0, pseudo[:]), segment))
}

// sumWords adds data to a ones'-complement sum eight bytes per step: a
// uint64 with end-around carry folds to the same 16 bits as adding the
// big-endian 16-bit words one by one. A short tail is padded with zeros
// on the right — the odd-byte rule (the last byte is a word's high half).
func sumWords(sum uint64, data []byte) uint64 {
	var carry uint64
	for ; len(data) >= 8; data = data[8:] {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data), carry)
	}
	var tail [8]byte
	copy(tail[:], data)
	sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(tail[:]), carry)
	sum, carry = bits.Add64(sum, 0, carry)
	return sum + carry
}

// foldSum folds a ones'-complement sum to 16 bits and complements it.
func foldSum(sum uint64) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
