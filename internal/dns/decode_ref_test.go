package dns

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"jitsu/internal/netstack"
)

// refDecode is the decoder Decode replaced, kept whole as the reference:
// one string per name however the wire spells it, one grown []RR per
// section, a Message and a Questions slice of their own. Decode must
// return a deep-equal message and the identical error on every input
// (TestDecodeMatchesReference, FuzzDNSCodec).

type refDecoder struct {
	data []byte
	off  int
}

// refDecode parses a wire-format message.
func refDecode(data []byte) (*Message, error) {
	if len(data) < 12 {
		return nil, ErrTruncated
	}
	d := &refDecoder{data: data, off: 12}
	m := &Message{}
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

	for i := 0; i < qd; i++ {
		name, err := d.readName()
		if err != nil {
			return nil, err
		}
		typ, err := d.readU16()
		if err != nil {
			return nil, err
		}
		class, err := d.readU16()
		if err != nil {
			return nil, err
		}
		m.Questions = append(m.Questions, Question{Name: name, Type: Type(typ), Class: class})
	}
	var err error
	if m.Answers, err = d.readRRs(an); err != nil {
		return nil, err
	}
	if m.Authority, err = d.readRRs(ns); err != nil {
		return nil, err
	}
	if m.Additional, err = d.readRRs(ar); err != nil {
		return nil, err
	}
	return m, nil
}

func (d *refDecoder) readU16() (uint16, error) {
	if d.off+2 > len(d.data) {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint16(d.data[d.off : d.off+2])
	d.off += 2
	return v, nil
}

func (d *refDecoder) readU32() (uint32, error) {
	if d.off+4 > len(d.data) {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(d.data[d.off : d.off+4])
	d.off += 4
	return v, nil
}

// readName follows compression pointers with a hop limit.
func (d *refDecoder) readName() (string, error) {
	name, next, err := refReadNameAt(d.data, d.off)
	if err != nil {
		return "", err
	}
	d.off = next
	return name, nil
}

// refReadNameAt parses a (possibly compressed) name iteratively: labels are
// appended dot-joined into one small buffer, so decoding a name costs a
// single string allocation instead of a []string plus strings.Join.
func refReadNameAt(data []byte, off int) (name string, next int, err error) {
	var arr [256]byte
	buf := arr[:0]
	nameLen := 0 // dot-joined length, tracked even past the buffer cap
	nlabels := 0
	hops := 0
	jumped := false
	next = -1
	for {
		if off >= len(data) {
			return "", 0, ErrTruncated
		}
		b := data[off]
		switch {
		case b == 0:
			if !jumped {
				next = off + 1
			}
			if nameLen > 253 {
				return "", 0, ErrNameTooLong
			}
			return string(buf), next, nil
		case b&0xc0 == 0xc0:
			if off+1 >= len(data) {
				return "", 0, ErrTruncated
			}
			ptr := int(binary.BigEndian.Uint16(data[off:off+2]) & 0x3fff)
			if !jumped {
				next = off + 2
			}
			jumped = true
			hops++
			if hops > 32 || ptr >= off {
				return "", 0, ErrBadPointer
			}
			off = ptr
		case b&0xc0 != 0:
			return "", 0, ErrBadName
		default:
			l := int(b)
			if off+1+l > len(data) {
				return "", 0, ErrTruncated
			}
			nlabels++
			if nlabels > 128 {
				return "", 0, ErrBadName
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

func (d *refDecoder) readRRs(n int) ([]RR, error) {
	var out []RR
	for i := 0; i < n; i++ {
		rr, err := d.readRR()
		if err != nil {
			return nil, err
		}
		out = append(out, rr)
	}
	return out, nil
}

func (d *refDecoder) readRR() (RR, error) {
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

// sameDecode holds Decode to refDecode on one input: a deep-equal
// message (nil sections stay nil) and the identical error.
func sameDecode(t testing.TB, data []byte) (*Message, error) {
	t.Helper()
	got, err := Decode(data)
	want, werr := refDecode(data)
	if err != werr {
		t.Fatalf("Decode error %v, reference %v\nwire=%x", err, werr, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode differs from the reference\n got %+v\nwant %+v\nwire=%x", got, want, data)
	}
	return got, err
}

// wireGen writes DNS wire format by hand, so that it can spell names the
// encoder never would: bare pointers to any earlier name (owner, question
// or rdata target), pointer chains, pointers into the middle of things,
// forward pointers.
type wireGen struct {
	rng   *rand.Rand
	b     []byte
	names []int // where each name written so far starts
}

func (g *wireGen) u16(v int) { g.b = append(g.b, byte(v>>8), byte(v)) }

func (g *wireGen) labels(n int) {
	for ; n > 0; n-- {
		l := 1 + g.rng.Intn(8)
		g.b = append(g.b, byte(l))
		for ; l > 0; l-- {
			g.b = append(g.b, byte('a'+g.rng.Intn(26)))
		}
	}
}

func (g *wireGen) pointer(off int) { g.u16(0xc000 | off&0x3fff) }

func (g *wireGen) name() {
	start := len(g.b)
	k := g.rng.Intn(20)
	switch {
	case k < 6 || len(g.names) == 0:
		g.labels(1 + g.rng.Intn(3))
		g.b = append(g.b, 0)
	case k < 13:
		g.pointer(g.names[g.rng.Intn(len(g.names))])
	case k < 17:
		g.labels(1 + g.rng.Intn(2))
		g.pointer(g.names[g.rng.Intn(len(g.names))])
	case k < 19:
		g.pointer(g.rng.Intn(start)) // anywhere earlier: header, rdata, mid-label
	default:
		g.pointer(start + g.rng.Intn(4)) // itself or forward
	}
	g.names = append(g.names, start)
}

func (g *wireGen) rr() {
	g.name()
	typ := []Type{TypeA, TypeA, TypeNS, TypeCNAME, TypeTXT, TypeSRV, TypeSOA, Type(99)}[g.rng.Intn(8)]
	g.u16(int(typ))
	g.u16(int(ClassIN))
	g.u16(0)
	g.u16(g.rng.Intn(600))
	lenAt := len(g.b)
	g.u16(0)
	switch typ {
	case TypeA:
		g.b = append(g.b, 10, 0, byte(g.rng.Intn(256)), byte(g.rng.Intn(256)))
	case TypeNS, TypeCNAME:
		g.name()
	case TypeTXT:
		g.labels(g.rng.Intn(3)) // character-strings have the label shape
	case TypeSRV:
		g.u16(1)
		g.u16(2)
		g.u16(80)
		g.name()
	case TypeSOA:
		g.name()
		g.name()
		for i := 0; i < 5; i++ {
			g.u16(0)
			g.u16(g.rng.Intn(4000))
		}
	default:
		g.labels(g.rng.Intn(4)) // opaque: never parsed, but a pointer may land in it
	}
	binary.BigEndian.PutUint16(g.b[lenAt:], uint16(len(g.b)-lenAt-2))
}

// message writes a whole random message: compression in all four
// sections, and now and then a cut-off frame or a count the frame cannot
// honour.
func (g *wireGen) message() []byte {
	qd := []int{0, 1, 1, 1, 1, 2}[g.rng.Intn(6)]
	counts := [3]int{g.rng.Intn(4), g.rng.Intn(3), g.rng.Intn(3)}
	g.b = append(g.b[:0], byte(g.rng.Intn(256)), byte(g.rng.Intn(256)), byte(g.rng.Intn(256)), byte(g.rng.Intn(16)))
	g.names = g.names[:0]
	g.u16(qd)
	for _, n := range counts {
		g.u16(n)
	}
	for i := 0; i < qd; i++ {
		g.name()
		g.u16(int(TypeA))
		g.u16(int(ClassIN))
	}
	for _, n := range counts {
		for i := 0; i < n; i++ {
			g.rr()
		}
	}
	switch g.rng.Intn(12) {
	case 0:
		return g.b[:g.rng.Intn(len(g.b)+1)]
	case 1:
		g.b[6+2*g.rng.Intn(3)] = byte(g.rng.Intn(256)) // up to 65 280 records claimed
	}
	return g.b
}

// chain is a question followed by k A records, the first named by a bare
// pointer to the question and each next one by a bare pointer to the one
// before: record i's name takes i hops.
func chain(k int) []byte {
	g := &wireGen{rng: rand.New(rand.NewSource(int64(k)))}
	g.b = []byte{0, 7, 0x80, 0, 0, 1, byte(k >> 8), byte(k), 0, 0, 0, 0}
	prev := len(g.b)
	g.labels(2)
	g.b = append(g.b, 0)
	g.u16(int(TypeA))
	g.u16(int(ClassIN))
	for i := 0; i < k; i++ {
		at := len(g.b)
		g.pointer(prev)
		prev = at
		g.b = append(g.b, 0, byte(TypeA), 0, byte(ClassIN), 0, 0, 0, 60, 0, 4, 10, 0, 0, byte(i))
	}
	return g.b
}

// deepChain hides a ladder of hops-1 pointers in the rdata of a record
// the decoder does not parse, names the second record by a pointer to
// the top of the ladder (hops hops: remembered, if it decodes at all),
// and the third by a bare pointer to the second's name (hops+1).
func deepChain(hops int) []byte {
	g := &wireGen{rng: rand.New(rand.NewSource(int64(hops)))}
	g.b = []byte{0, 7, 0x80, 0, 0, 1, 0, 3, 0, 0, 0, 0}
	q := len(g.b)
	g.labels(2)
	g.b = append(g.b, 0)
	g.u16(int(TypeA))
	g.u16(int(ClassIN))
	g.pointer(q)
	g.b = append(g.b, 0, 99, 0, byte(ClassIN), 0, 0, 0, 60)
	g.u16(2 * (hops - 1))
	top := q
	for i := 0; i < hops-1; i++ {
		at := len(g.b)
		g.pointer(top)
		top = at
	}
	second := len(g.b)
	g.pointer(top)
	g.b = append(g.b, 0, byte(TypeA), 0, byte(ClassIN), 0, 0, 0, 60, 0, 4, 10, 0, 0, 2)
	g.pointer(second)
	g.b = append(g.b, 0, byte(TypeA), 0, byte(ClassIN), 0, 0, 0, 60, 0, 4, 10, 0, 0, 3)
	return g.b
}

// longTarget names a record by a pointer to 260 bytes of labels that sit
// in opaque rdata: the only name of the message that is too long is one
// reached through a pointer.
func longTarget() []byte {
	g := &wireGen{rng: rand.New(rand.NewSource(1))}
	g.b = []byte{0, 7, 0x80, 0, 0, 0, 0, 2, 0, 0, 0, 0}
	g.b = append(g.b, 0, 0, 99, 0, byte(ClassIN), 0, 0, 0, 60)
	lenAt := len(g.b)
	g.u16(0)
	long := len(g.b)
	for i := 0; i < 29; i++ { // 29 × (1+8) bytes: 260 dot-joined
		g.b = append(g.b, 8)
		g.b = append(g.b, "abcdefgh"...)
	}
	g.b = append(g.b, 0)
	binary.BigEndian.PutUint16(g.b[lenAt:], uint16(len(g.b)-lenAt-2))
	g.pointer(long)
	g.b = append(g.b, 0, byte(TypeA), 0, byte(ClassIN), 0, 0, 0, 60, 0, 4, 10, 0, 0, 2)
	return g.b
}

func TestDecodeMatchesReference(t *testing.T) {
	// The directed shapes first: what each must do is known.
	for k := 1; k <= 33; k++ {
		var want error
		if k > maxNameHops {
			want = ErrBadPointer
		}
		if _, err := sameDecode(t, chain(k)); err != want {
			t.Fatalf("chain of %d hops: %v, want %v", k, err, want)
		}
	}
	for hops, want := range map[int]error{30: nil, 31: nil, 32: ErrBadPointer, 33: ErrBadPointer} {
		// deepChain(h)'s third name takes h+1 hops.
		if _, err := sameDecode(t, deepChain(hops)); err != want {
			t.Fatalf("deepChain(%d): %v, want %v", hops, err, want)
		}
	}
	if _, err := sameDecode(t, longTarget()); err != ErrNameTooLong {
		t.Fatalf("pointer to a 260-byte name: %v, want %v", err, ErrNameTooLong)
	}
	// Then 2 000 seeded messages nobody chose.
	outcomes := map[error]int{}
	shared := 0
	for seed := int64(1); seed <= 2000; seed++ {
		g := &wireGen{rng: rand.New(rand.NewSource(seed))}
		data := bytes.Clone(g.message())
		m, err := sameDecode(t, data)
		outcomes[err]++
		if err == nil {
			shared += sharedNames(m)
		}
	}
	t.Logf("outcomes %v, %d names shared with an earlier one", outcomes, shared)
	for _, err := range []error{nil, ErrTruncated, ErrBadPointer} {
		if outcomes[err] == 0 {
			t.Errorf("no seeded message ended in %v", err)
		}
	}
	if outcomes[nil] < 500 || shared < 500 {
		t.Errorf("only %d of 2000 messages decoded, sharing %d names: the generator no longer exercises name reuse", outcomes[nil], shared)
	}
}

// sharedNames counts the record names of m whose string shares its bytes
// with an earlier name of the message — the decoder's reuse, observed.
func sharedNames(m *Message) int {
	seen := map[*byte]bool{}
	n := 0
	note := func(s string) {
		if s == "" {
			return
		}
		p := unsafe.StringData(s)
		if seen[p] {
			n++
		}
		seen[p] = true
	}
	for _, q := range m.Questions {
		note(q.Name)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			note(rr.Name)
			note(rr.Target)
			note(rr.MName)
			note(rr.RName)
		}
	}
	return n
}

func TestDecodedSectionsDoNotAlias(t *testing.T) {
	m := &Message{
		ID: 7, Response: true,
		Questions:  []Question{{Name: "alice.family.name", Type: TypeA, Class: ClassIN}},
		Answers:    []RR{{Name: "alice.family.name", Type: TypeA, Class: ClassIN, TTL: 60, A: netstack.IPv4(10, 0, 0, 20)}},
		Authority:  []RR{{Name: "c0.family.name", Type: TypeNS, Class: ClassIN, TTL: 300, Target: "ns.c0.family.name"}},
		Additional: []RR{{Name: "ns.c0.family.name", Type: TypeA, Class: ClassIN, TTL: 300, A: netstack.IPv4(10, 254, 0, 10)}},
	}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	d, _ := sameDecode(t, wire)
	for name, sec := range map[string][]RR{"Answers": d.Answers, "Authority": d.Authority, "Additional": d.Additional} {
		if len(sec) != 1 || cap(sec) != 1 {
			t.Errorf("%s: len %d cap %d, want a clipped window of one record", name, len(sec), cap(sec))
		}
	}
	authority, glue := d.Authority[0], d.Additional[0]
	d.Answers = append(d.Answers, RR{Name: "intruder", Type: TypeTXT, TXT: "x"})
	d.Authority = append(d.Authority, RR{Name: "intruder", Type: TypeTXT, TXT: "y"})
	if d.Authority[0] != authority || d.Additional[0] != glue {
		t.Fatalf("appending to one section wrote into the next:\nauthority %+v\nadditional %+v", d.Authority[0], d.Additional[0])
	}
	if len(d.Questions) != 1 || cap(d.Questions) != 1 {
		t.Errorf("Questions: len %d cap %d", len(d.Questions), cap(d.Questions))
	}
}
