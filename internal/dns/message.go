// Package dns implements the RFC 1035 wire protocol and a small
// authoritative server, the front door of the Jitsu directory service
// (§3.3): "a Jitsu VM ... handles name resolution ... through DNS
// protocol handlers listening on the network bridge."
//
// The codec supports name compression on encode and decode, the record
// types an edge deployment needs (A, NS, CNAME, SOA, PTR, TXT, SRV) and
// the SERVFAIL signalling Jitsu uses for resource exhaustion.
package dns

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"

	"jitsu/internal/netstack"
)

// Wire-format errors.
var (
	ErrTruncated   = errors.New("dns: truncated message")
	ErrBadName     = errors.New("dns: malformed name")
	ErrBadPointer  = errors.New("dns: bad compression pointer")
	ErrNameTooLong = errors.New("dns: name exceeds 255 octets")
)

// Type is a resource record type.
type Type uint16

// Record types.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeTXT   Type = 16
	TypeSRV   Type = 33
	TypeANY   Type = 255
)

func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypePTR:
		return "PTR"
	case TypeTXT:
		return "TXT"
	case TypeSRV:
		return "SRV"
	case TypeANY:
		return "ANY"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// ClassIN is the only class we speak.
const ClassIN uint16 = 1

// RCode is a response code.
type RCode uint8

// Response codes.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImpl  RCode = 4
	RCodeRefused  RCode = 5
)

func (r RCode) String() string {
	switch r {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImpl:
		return "NOTIMPL"
	case RCodeRefused:
		return "REFUSED"
	default:
		return fmt.Sprintf("RCODE%d", uint8(r))
	}
}

// Question is one query.
type Question struct {
	Name  string
	Type  Type
	Class uint16
}

// RR is one resource record. Exactly one of the Rdata fields is
// meaningful, keyed by Type.
type RR struct {
	Name  string
	Type  Type
	Class uint16
	TTL   uint32

	A      netstack.IP // TypeA
	Target string      // NS, CNAME, PTR, SRV target
	TXT    string      // TypeTXT
	// SRV fields.
	Priority, Weight, Port uint16
	// SOA fields.
	MName, RName                               string
	Serial, Refresh, Retry, Expire, MinimumTTL uint32
}

// Message is a DNS message.
type Message struct {
	ID                 uint16
	Response           bool
	Opcode             uint8
	Authoritative      bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode

	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// CanonicalName lower-cases and strips the trailing dot. Names that are
// already canonical — the overwhelmingly common case on the serve path,
// where every name has been canonicalised at registration or decode —
// are returned unchanged without allocating.
func CanonicalName(name string) string {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if ('A' <= c && c <= 'Z') || c >= utf8.RuneSelf || (c == '.' && i == len(name)-1) {
			return strings.TrimSuffix(strings.ToLower(name), ".")
		}
	}
	return name
}

// ---- encoding ----

// compTableSize bounds the encoder's name-compression table. Every real
// message in the simulation carries well under this many distinct name
// suffixes; if a message ever exceeds it, later names are simply emitted
// uncompressed (still valid wire format).
const compTableSize = 32

type compEntry struct {
	off  uint16
	name string
}

// encoder appends wire format into buf. The compression table is a
// fixed-size array scanned linearly — far cheaper than a map[string]int
// for the handful of suffixes a message contains, and allocation-free.
type encoder struct {
	buf   []byte
	base  int // index in buf where this message's header starts
	comp  [compTableSize]compEntry
	ncomp int
}

// Encode renders the message with name compression.
func (m *Message) Encode() ([]byte, error) {
	return m.AppendEncode(make([]byte, 0, 128))
}

// AppendEncode renders the message with name compression, appending the
// wire form to dst (which may be nil, or a recycled buffer to make the
// encode allocation-free). It returns the extended buffer. m is only
// read, so messages may share record slices (the federation root's
// referrals do) — and whoever is handed one to send must not write them.
func (m *Message) AppendEncode(dst []byte) ([]byte, error) {
	e := encoder{buf: dst}
	base := len(dst)
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Opcode&0xf) << 11
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.RCode) & 0xf

	var hdr [12]byte
	binary.BigEndian.PutUint16(hdr[0:2], m.ID)
	binary.BigEndian.PutUint16(hdr[2:4], flags)
	binary.BigEndian.PutUint16(hdr[4:6], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(hdr[6:8], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(hdr[8:10], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(hdr[10:12], uint16(len(m.Additional)))
	e.buf = append(e.buf, hdr[:]...)
	// Compression offsets are relative to the message start, not the
	// caller's buffer start.
	e.base = base

	for _, q := range m.Questions {
		if err := e.writeName(q.Name); err != nil {
			return nil, err
		}
		e.writeU16(uint16(q.Type))
		e.writeU16(q.Class)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range sec {
			if err := e.writeRR(&sec[i]); err != nil {
				return nil, err
			}
		}
	}
	return e.buf, nil
}

func (e *encoder) writeU16(v uint16) {
	e.buf = append(e.buf, byte(v>>8), byte(v))
}

func (e *encoder) writeU32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// lookupComp finds a previously written suffix in the compression table.
func (e *encoder) lookupComp(name string) (uint16, bool) {
	for i := 0; i < e.ncomp; i++ {
		if e.comp[i].name == name {
			return e.comp[i].off, true
		}
	}
	return 0, false
}

// writeName emits a possibly-compressed domain name.
func (e *encoder) writeName(name string) error {
	name = CanonicalName(name)
	if len(name) > 253 {
		return ErrNameTooLong
	}
	for name != "" {
		if off, ok := e.lookupComp(name); ok {
			e.writeU16(0xc000 | off)
			return nil
		}
		if off := len(e.buf) - e.base; off < 0x3fff && e.ncomp < compTableSize {
			e.comp[e.ncomp] = compEntry{off: uint16(off), name: name}
			e.ncomp++
		}
		label := name
		rest := ""
		if idx := strings.IndexByte(name, '.'); idx >= 0 {
			label, rest = name[:idx], name[idx+1:]
		}
		if label == "" || len(label) > 63 {
			return ErrBadName
		}
		e.buf = append(e.buf, byte(len(label)))
		e.buf = append(e.buf, label...)
		name = rest
	}
	e.buf = append(e.buf, 0)
	return nil
}

func (e *encoder) writeRR(rr *RR) error {
	if err := e.writeName(rr.Name); err != nil {
		return err
	}
	e.writeU16(uint16(rr.Type))
	class := rr.Class
	if class == 0 {
		class = ClassIN
	}
	e.writeU16(class)
	e.writeU32(rr.TTL)
	// Reserve rdlength; patch after writing rdata.
	lenAt := len(e.buf)
	e.writeU16(0)
	start := len(e.buf)
	switch rr.Type {
	case TypeA:
		e.buf = append(e.buf, rr.A[:]...)
	case TypeNS, TypeCNAME, TypePTR:
		if err := e.writeName(rr.Target); err != nil {
			return err
		}
	case TypeTXT:
		txt := rr.TXT
		for len(txt) > 255 {
			e.buf = append(e.buf, 255)
			e.buf = append(e.buf, txt[:255]...)
			txt = txt[255:]
		}
		e.buf = append(e.buf, byte(len(txt)))
		e.buf = append(e.buf, txt...)
	case TypeSRV:
		e.writeU16(rr.Priority)
		e.writeU16(rr.Weight)
		e.writeU16(rr.Port)
		if err := e.writeName(rr.Target); err != nil {
			return err
		}
	case TypeSOA:
		if err := e.writeName(rr.MName); err != nil {
			return err
		}
		if err := e.writeName(rr.RName); err != nil {
			return err
		}
		e.writeU32(rr.Serial)
		e.writeU32(rr.Refresh)
		e.writeU32(rr.Retry)
		e.writeU32(rr.Expire)
		e.writeU32(rr.MinimumTTL)
	default:
		return fmt.Errorf("dns: cannot encode %v", rr.Type)
	}
	binary.BigEndian.PutUint16(e.buf[lenAt:lenAt+2], uint16(len(e.buf)-start))
	return nil
}

// ---- decoding ----

type decoder struct {
	data []byte
	off  int
	// known is a name the message is expected to carry (a reply's
	// question): one spelt exactly like it is that string again.
	known string
	// rrs is the message's one record array; a section is a window of it.
	rrs []RR
	// seen remembers where each of the message's first few names started,
	// what it decoded to and how many compression pointers that took: a
	// later name that is nothing but a pointer to one of those offsets is
	// the same string again, one hop further on.
	seen [8]struct {
		off, hops int
		name      string
	}
	nseen int
}

// decoded is a message with room for the common reply in place: its
// first question and, when the message carries just one, its record.
type decoded struct {
	Message
	q  [1]Question
	rr [1]RR
}

// Decode parses a wire-format message. The message, its first question
// and a lone record are one allocation; more records make the three
// sections windows of one array (each with len == cap: appending to one
// never writes into the next), and a name spelt as a bare compression
// pointer to an earlier name shares its string. The caller may keep the
// message and append to its sections; data is not referenced.
func Decode(data []byte) (*Message, error) {
	dd := new(decoded)
	if err := decodeInto(data, dd, ""); err != nil {
		return nil, err
	}
	return &dd.Message, nil
}

// decodeInto is Decode into dd, all of which it overwrites first: what
// an earlier decode left there, a rejected one included, is gone. A name
// spelt exactly like known is known itself, not a copy.
func decodeInto(data []byte, dd *decoded, known string) error {
	*dd = decoded{}
	if len(data) < 12 {
		return ErrTruncated
	}
	d := &decoder{data: data, off: 12, known: known}
	m := &dd.Message
	m.ID = binary.BigEndian.Uint16(data[0:2])
	flags := binary.BigEndian.Uint16(data[2:4])
	m.Response = flags&(1<<15) != 0
	m.Opcode = uint8(flags >> 11 & 0xf)
	m.Authoritative = flags&(1<<10) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.RCode = RCode(flags & 0xf)
	qd := int(binary.BigEndian.Uint16(data[4:6]))
	an := int(binary.BigEndian.Uint16(data[6:8]))
	ns := int(binary.BigEndian.Uint16(data[8:10]))
	ar := int(binary.BigEndian.Uint16(data[10:12]))

	if qd > 0 {
		m.Questions = dd.q[:0]
	}
	for i := 0; i < qd; i++ {
		name, err := d.readName()
		if err != nil {
			return err
		}
		typ, err := d.readU16()
		if err != nil {
			return err
		}
		class, err := d.readU16()
		if err != nil {
			return err
		}
		m.Questions = append(m.Questions, Question{Name: name, Type: Type(typ), Class: class})
	}
	if n := an + ns + ar; n <= len(dd.rr) {
		d.rrs = dd.rr[:0:n]
	} else {
		// A frame cannot buy more room than it carries: no record is
		// shorter than 11 bytes (root owner name, type, class, TTL,
		// empty rdata).
		d.rrs = make([]RR, 0, min(n, (len(data)-d.off)/11))
	}
	var err error
	if m.Answers, err = d.readRRs(an); err != nil {
		return err
	}
	if m.Authority, err = d.readRRs(ns); err != nil {
		return err
	}
	if m.Additional, err = d.readRRs(ar); err != nil {
		return err
	}
	return nil
}

func (d *decoder) readU16() (uint16, error) {
	if d.off+2 > len(d.data) {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint16(d.data[d.off : d.off+2])
	d.off += 2
	return v, nil
}

func (d *decoder) readU32() (uint32, error) {
	if d.off+4 > len(d.data) {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(d.data[d.off : d.off+4])
	d.off += 4
	return v, nil
}

// readName reads the name at d.off and files it in d.seen.
func (d *decoder) readName() (string, error) {
	start := d.off
	name, hops, next, err := d.readNameAt(start)
	if err != nil {
		return "", err
	}
	if d.nseen < len(d.seen) {
		s := &d.seen[d.nseen]
		s.off, s.hops, s.name = start, hops, name
		d.nseen++
	}
	d.off = next
	return name, nil
}

// maxNameHops bounds the compression pointers one name may follow.
const maxNameHops = 32

// readNameAt parses a (possibly compressed) name iteratively: labels are
// appended dot-joined into one small buffer, so decoding a name costs a
// single string allocation instead of a []string plus strings.Join — or
// none, when the name is nothing but pointers to one already in d.seen:
// that one decoded cleanly, so only the hop limit can still fail.
func (d *decoder) readNameAt(off int) (name string, hops, next int, err error) {
	data := d.data
	var arr [256]byte
	buf := arr[:0]
	nameLen := 0 // dot-joined length, tracked even past the buffer cap
	nlabels := 0
	jumped := false
	next = -1
	for {
		if off >= len(data) {
			return "", 0, 0, ErrTruncated
		}
		b := data[off]
		switch {
		case b == 0:
			if !jumped {
				next = off + 1
			}
			if nameLen > 253 {
				return "", 0, 0, ErrNameTooLong
			}
			if string(buf) == d.known {
				return d.known, hops, next, nil
			}
			return string(buf), hops, next, nil
		case b&0xc0 == 0xc0:
			if off+1 >= len(data) {
				return "", 0, 0, ErrTruncated
			}
			ptr := int(binary.BigEndian.Uint16(data[off:off+2]) & 0x3fff)
			if !jumped {
				next = off + 2
			}
			jumped = true
			hops++
			if hops > maxNameHops || ptr >= off {
				return "", 0, 0, ErrBadPointer
			}
			for i := 0; i < d.nseen && nlabels == 0; i++ {
				if s := &d.seen[i]; s.off == ptr {
					if hops += s.hops; hops > maxNameHops {
						return "", 0, 0, ErrBadPointer
					}
					return s.name, hops, next, nil
				}
			}
			off = ptr
		case b&0xc0 != 0:
			return "", 0, 0, ErrBadName
		default:
			l := int(b)
			if off+1+l > len(data) {
				return "", 0, 0, ErrTruncated
			}
			nlabels++
			if nlabels > 128 {
				return "", 0, 0, ErrBadName
			}
			if nlabels > 1 {
				nameLen++
			}
			nameLen += l
			// An overlong name keeps parsing (an earlier wire error must
			// still win) but stops accumulating: it can only end in
			// ErrNameTooLong.
			if nameLen <= len(arr) {
				if nlabels > 1 {
					buf = append(buf, '.')
				}
				buf = append(buf, data[off+1:off+1+l]...)
			}
			off += 1 + l
		}
	}
}

// readRRs reads one section of n records onto the end of d.rrs and
// returns that window, clipped; an empty section is nil.
func (d *decoder) readRRs(n int) ([]RR, error) {
	start := len(d.rrs)
	for i := 0; i < n; i++ {
		rr, err := d.readRR()
		if err != nil {
			return nil, err
		}
		d.rrs = append(d.rrs, rr)
	}
	if n == 0 {
		return nil, nil
	}
	return d.rrs[start:len(d.rrs):len(d.rrs)], nil
}

func (d *decoder) readRR() (RR, error) {
	var rr RR
	name, err := d.readName()
	if err != nil {
		return rr, err
	}
	rr.Name = name
	typ, err := d.readU16()
	if err != nil {
		return rr, err
	}
	rr.Type = Type(typ)
	if rr.Class, err = d.readU16(); err != nil {
		return rr, err
	}
	if rr.TTL, err = d.readU32(); err != nil {
		return rr, err
	}
	rdlen, err := d.readU16()
	if err != nil {
		return rr, err
	}
	end := d.off + int(rdlen)
	if end > len(d.data) {
		return rr, ErrTruncated
	}
	switch rr.Type {
	case TypeA:
		if rdlen != 4 {
			return rr, ErrTruncated
		}
		copy(rr.A[:], d.data[d.off:end])
	case TypeNS, TypeCNAME, TypePTR:
		if rr.Target, err = d.readName(); err != nil {
			return rr, err
		}
	case TypeTXT:
		var sb strings.Builder
		for p := d.off; p < end; {
			l := int(d.data[p])
			if p+1+l > end {
				return rr, ErrTruncated
			}
			sb.Write(d.data[p+1 : p+1+l])
			p += 1 + l
		}
		rr.TXT = sb.String()
	case TypeSRV:
		if rr.Priority, err = d.readU16(); err != nil {
			return rr, err
		}
		if rr.Weight, err = d.readU16(); err != nil {
			return rr, err
		}
		if rr.Port, err = d.readU16(); err != nil {
			return rr, err
		}
		if rr.Target, err = d.readName(); err != nil {
			return rr, err
		}
	case TypeSOA:
		if rr.MName, err = d.readName(); err != nil {
			return rr, err
		}
		if rr.RName, err = d.readName(); err != nil {
			return rr, err
		}
		for _, p := range []*uint32{&rr.Serial, &rr.Refresh, &rr.Retry, &rr.Expire, &rr.MinimumTTL} {
			if *p, err = d.readU32(); err != nil {
				return rr, err
			}
		}
	}
	d.off = end
	return rr, nil
}
