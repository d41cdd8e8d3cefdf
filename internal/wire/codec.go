package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/core"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/unikernel"
)

// ---- wire-only message shapes ----
//
// Most verbs serialize api's own request/response structs. The ones
// below replace fields a wire cannot carry: callbacks become Want*
// flags (the peer delivers ReadyEvent/DoneEvent frames instead), and
// unikernel.Image.App — an interface — is dropped on encode and
// re-attached by the Server's app resolver.

// Hello opens a connection: the client's version range, which must
// include Version, and its capability token.
type Hello struct {
	Min, Max uint16
	// Token is the capability credential (empty = anonymous).
	Token string
}

// HelloAck answers Hello: Version, or 0 when the range excludes it or
// the credential was refused (the server closes after sending).
type HelloAck struct {
	Version uint16
	// Scope is the capability level granted to the session.
	Scope api.Scope
	// Err explains a refusal — CodeUnauthorized for a bad or missing
	// credential (nil on acceptance).
	Err *api.Error
}

// ActivateReq is api.ActivateRequest with OnReady flattened to a flag.
type ActivateReq struct {
	Name        string
	Speculative bool
	WantReady   bool
}

// RestoreReq is api.RestoreRequest with OnReady flattened to a flag.
type RestoreReq struct {
	Name       string
	Checkpoint *core.Checkpoint
	Board      api.BoardSel
	ToDisk     bool
	WantReady  bool
}

// MigrateReq is api.MigrateRequest with OnDone flattened to a flag.
type MigrateReq struct {
	Name     string
	From, To api.BoardSel
	WantDone bool
}

// TransferReq is api.TransferRequest with OnReady flattened to a flag.
type TransferReq struct {
	Config     core.ServiceConfig
	MinWarm    int
	Policy     string
	Checkpoint *core.Checkpoint
	ToDisk     bool
	WantReady  bool
}

// PromoteReq is api.PromoteRequest with OnReady flattened to a flag.
type PromoteReq struct {
	Name      string
	Board     api.BoardSel
	WantReady bool
}

// WatchReq is api.WatchStatsRequest minus the callback: snapshots
// arrive as StatsEvent frames tagged with this request's id.
type WatchReq struct {
	Every time.Duration
}

// WatchResp acknowledges (or refuses) a WatchReq.
type WatchResp struct {
	Err *api.Error
}

// ReadyEvent delivers a remote OnReady firing (nil Err = success).
type ReadyEvent struct {
	Err *api.Error
}

// DoneEvent delivers a remote Migrate OnDone firing.
type DoneEvent struct {
	OK bool
}

// ---- one buffer, both directions ----

// buf is a frame being written or a frame body being read. Every layout
// on this wire is written once, as a walk over a message's fields
// through the methods below: encoding, a method appends its field to b;
// decoding (dec), it fills the field from the front of b. The first
// failure sticks in err and the rest of the walk does nothing.
type buf struct {
	b     []byte
	dec   bool
	start int       // encoding: where the frame begins in b
	d     *Decoder  // decoding: the session's name table, or nil
	rows  *obs.Rows // decoding into a stats buffer: its arrays, refilled
	err   error
}

func (x *buf) fail() {
	if x.err == nil {
		x.err = ErrBadFrame
	}
}

// take consumes the next n bytes of the body being read, or fails.
func (x *buf) take(n int) []byte {
	if x.err != nil || len(x.b) < n {
		x.fail()
		return nil
	}
	v := x.b[:n]
	x.b = x.b[n:]
	return v
}

func (x *buf) u8(v *byte) {
	if !x.dec {
		x.b = append(x.b, *v)
	} else if p := x.take(1); p != nil {
		*v = p[0]
	}
}

func (x *buf) u16(v *uint16) {
	if !x.dec {
		x.b = binary.BigEndian.AppendUint16(x.b, *v)
	} else if p := x.take(2); p != nil {
		*v = binary.BigEndian.Uint16(p)
	}
}

func (x *buf) u32(v *uint32) {
	if !x.dec {
		x.b = binary.BigEndian.AppendUint32(x.b, *v)
	} else if p := x.take(4); p != nil {
		*v = binary.BigEndian.Uint32(p)
	}
}

func (x *buf) u64(v *uint64) {
	if !x.dec {
		x.b = binary.BigEndian.AppendUint64(x.b, *v)
	} else if p := x.take(8); p != nil {
		*v = binary.BigEndian.Uint64(p)
	}
}

func (x *buf) i64(v *int64) {
	u := uint64(*v)
	x.u64(&u)
	*v = int64(u)
}

func (x *buf) f64(v *float64) {
	u := math.Float64bits(*v)
	x.u64(&u)
	*v = math.Float64frombits(u)
}

func (x *buf) dur(v *time.Duration) { x.i64((*int64)(v)) }

// int moves an int as the int32 every count, size and board index on
// this wire fits.
func (x *buf) int(v *int) {
	u := uint32(int32(*v))
	x.u32(&u)
	*v = int(int32(u))
}

func (x *buf) bool(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	x.u8(&b)
	*v = b != 0
}

// enum moves a small enumeration as one byte.
func enum[T ~int | ~uint8](x *buf, v *T) {
	b := byte(*v)
	x.u8(&b)
	*v = T(b)
}

func (x *buf) str(v *string) { x.text(v, false) }

// name moves a service, trigger, registry or metric name — a string that
// recurs from frame to frame — reading it through the session's intern
// table, if there is one. Error details and tokens use str.
func (x *buf) name(v *string) { x.text(v, true) }

func (x *buf) text(v *string, recurs bool) {
	if !x.dec {
		s := *v
		if len(s) > math.MaxUint16 {
			x.err = fmt.Errorf("%w: string length %d", ErrBadFrame, len(s))
			s = s[:math.MaxUint16]
		}
		x.b = append(binary.BigEndian.AppendUint16(x.b, uint16(len(s))), s...)
		return
	}
	var n uint16
	x.u16(&n)
	if p := x.take(int(n)); p == nil {
		*v = ""
	} else if recurs && x.d != nil {
		*v = x.d.intern(p)
	} else {
		*v = string(p)
	}
}

func (x *buf) ip(v *netstack.IP) {
	if !x.dec {
		x.b = append(x.b, v[:]...)
	} else {
		copy(v[:], x.take(len(v)))
	}
}

// count moves a collection's length — refusing silent truncation of one
// too long to write. Decoding, a count of elements of at least elem bytes
// that the rest of the body cannot hold fails the frame there, before
// anything is allocated for them: a frame cannot buy more memory than it
// carries. The caller still walks to the count, so a short body fails.
func count(x *buf, length, elem int) int {
	n := uint16(length)
	if !x.dec && length > math.MaxUint16 {
		x.err = fmt.Errorf("%w: collection length %d", ErrBadFrame, length)
	}
	x.u16(&n)
	if x.dec && int(n)*elem > len(x.b) {
		x.fail()
		return 0
	}
	return int(n)
}

// sized moves a collection's count and, decoding, gives *s — empty, its
// array perhaps kept from an earlier frame — room for it: none leaves it
// nil, as a fresh decode does.
func sized[T any](x *buf, s *[]T, elem int) int {
	n := count(x, len(*s), elem)
	if x.dec && n == 0 {
		*s = nil
	} else if x.dec {
		*s = slices.Grow(*s, n)
	}
	return n
}

// at is element i of *s, appended first — zeroed — when decoding.
func at[T any](x *buf, s *[]T, i int) *T {
	if x.dec {
		*s = append(*s, *new(T))
	}
	return &(*s)[i]
}

// done finishes a strict decode: any sticky error or trailing bytes is
// a malformed frame.
func (x *buf) done() error {
	if x.err != nil {
		return x.err
	}
	if len(x.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(x.b))
	}
	return nil
}

// ---- composite fields ----

func (x *buf) apiErr(v **api.Error) {
	has := *v != nil
	if x.bool(&has); !has {
		return
	}
	if x.dec {
		*v = &api.Error{}
	}
	e := *v
	x.str(&e.Op)
	enum(x, &e.Code)
	x.str(&e.Detail)
}

// image moves an image minus its App interface; the Server's app
// resolver re-attaches one by (Name, Kind) on the receiving side.
func (x *buf) image(v *unikernel.Image) {
	x.str(&v.Name)
	enum(x, &v.Kind)
	x.int(&v.MemMiB)
	x.f64(&v.BinaryMiB)
}

func (x *buf) config(v *core.ServiceConfig) {
	x.str(&v.Name)
	x.ip(&v.IP)
	x.u16(&v.Port)
	x.image(&v.Image)
	x.u32(&v.TTL)
	x.dur(&v.IdleTimeout)
	x.int(&v.StateMiB)
}

func (x *buf) checkpoint(v **core.Checkpoint) {
	has := *v != nil
	if x.bool(&has); !has {
		return
	}
	if x.dec {
		*v = &core.Checkpoint{}
	}
	x.image(&(*v).Image)
	x.int(&(*v).StateMiB)
}

// rows moves a registry's rows of one kind like sized, but decoding cuts
// their room from p instead of allocating it, never sizing a new array
// past the rows the rest of the body could carry (count's rule).
func rows[T any](x *buf, s *[]T, p *obs.Pool[T], elem int) int {
	n := count(x, len(*s), elem)
	if x.dec {
		*s = p.Cut(n, len(x.b)/elem)
	}
	return n
}

func (x *buf) snapshot(s *obs.Snapshot, p *obs.Rows) {
	x.name(&s.Name)
	for i, n := 0, rows(x, &s.Counters, &p.Counters, 2+8); i < n && x.err == nil; i++ {
		c := at(x, &s.Counters, i)
		x.name(&c.Name)
		x.u64(&c.Value)
	}
	for i, n := 0, rows(x, &s.Gauges, &p.Gauges, 2+8); i < n && x.err == nil; i++ {
		g := at(x, &s.Gauges, i)
		x.name(&g.Name)
		x.i64(&g.Value)
	}
}

// stats is the body of a Stats response and of a StatsEvent.
func (x *buf) stats(s *api.StatsResponse) {
	for i, n := 0, sized(x, &s.Services, 2+1+8*8); i < n && x.err == nil; i++ {
		sv := at(x, &s.Services, i)
		x.name(&sv.Name)
		enum(x, &sv.State)
		x.u64(&sv.Launches)
		x.u64(&sv.ColdStarts)
		x.u64(&sv.Handoffs)
		x.u64(&sv.ServFails)
		x.u64(&sv.Reaps)
		x.u64(&sv.Restores)
		x.u64(&sv.DiskRestores)
		x.u64(&sv.Demotions)
	}
	for i, n := 0, sized(x, &s.Triggers, 2+8); i < n && x.err == nil; i++ {
		t := at(x, &s.Triggers, i)
		x.name(&t.Name)
		x.u64(&t.Fired)
	}
	// A stats buffer refills its own arrays; a session starts new ones,
	// sized from its last frame; without either every cut starts an array
	// of its own.
	p, keep := x.rows, x.rows != nil
	if !keep && x.d != nil {
		p = &x.d.rows
	} else if !keep {
		p = new(obs.Rows)
	}
	for i, n := 0, sized(x, &s.Registries, 2+2+2); i < n && x.err == nil; i++ {
		x.snapshot(at(x, &s.Registries, i), p)
	}
	p.Counters.Next(keep)
	p.Gauges.Next(keep)
	x.apiErr(&s.Err)
}

// ---- frames ----

// Append serializes one frame (header + body) onto dst; ver must be
// Version. The msg's Go type must match typ: the api request/response
// struct for plain verbs, or the wire-level shapes above for verbs with
// callbacks, events and handshake frames. TWatchCancel, which has no
// body, takes a nil msg.
func Append(dst []byte, ver byte, typ byte, id uint32, msg any) ([]byte, error) {
	if ver != Version {
		return dst, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	x, _ := begin(dst, typ, id).body(typ, msg)
	buf, err := x.end()
	if err != nil {
		return dst, err
	}
	return buf, nil
}

// begin starts a frame on dst: the header, its length still to come.
func begin(dst []byte, typ byte, id uint32) buf {
	x := buf{b: dst, start: len(dst)}
	x.b = append(x.b, 0, 0, 0, 0, Version, typ)
	x.u32(&id)
	return x
}

// end back-fills the length of the frame begin started and returns the
// buffer, or the error that spoilt the frame.
func (x buf) end() ([]byte, error) {
	if x.err != nil {
		return nil, x.err
	}
	n := len(x.b) - x.start - 4
	if n > MaxFrame {
		return nil, ErrFrameTooBig
	}
	binary.BigEndian.PutUint32(x.b[x.start:], uint32(n))
	return x.b, nil
}

// arg is the message a body walks: msg itself when encoding, asserted
// to the one Go type its frame carries; a zero T to fill when decoding.
func arg[T any](x *buf, msg any) (m T) {
	if !x.dec {
		m = msg.(T)
	}
	return m
}

// body moves msg as the body of a typ frame — through the verb table
// for a verb's request or response, here for the handshake, event and
// cancel frames — and returns the message it read or wrote.
func (x buf) body(typ byte, msg any) (buf, any) {
	if c := codecOf(typ); c != nil {
		return c(x, msg)
	}
	switch typ {
	case THello:
		m := arg[Hello](&x, msg)
		x.u16(&m.Min)
		x.u16(&m.Max)
		x.str(&m.Token)
		return x, m
	case THelloAck:
		m := arg[HelloAck](&x, msg)
		x.u16(&m.Version)
		enum(&x, &m.Scope)
		x.apiErr(&m.Err)
		return x, m
	case TWatchCancel:
		return x, struct{}{}
	case TStatsEvent:
		m := arg[api.StatsResponse](&x, msg)
		x.stats(&m)
		return x, m
	case TReadyEvent:
		m := arg[ReadyEvent](&x, msg)
		x.apiErr(&m.Err)
		return x, m
	case TDoneEvent:
		m := arg[DoneEvent](&x, msg)
		x.bool(&m.OK)
		return x, m
	}
	x.err = fmt.Errorf("%w: 0x%02x", ErrUnknownType, typ)
	return x, nil
}

// ---- frame decode ----

// maxInterned caps a Decoder's name table; past it names allocate per
// frame, as they do without a Decoder.
const maxInterned = 4096

// Decoder is one session's decoding state: the names its stats frames
// repeat, snapshot after snapshot — services, triggers, registries,
// metrics — are allocated once and handed out again, and each stats
// frame's registries share one array per row kind, sized from the
// previous frame's totals: once a session has seen a frame, one of the
// same shape costs a fixed number of allocations however many
// registries it carries. A frame that outgrows the last
// starts a new array for what is left; no array is sized past what the
// rest of the body could carry. The zero value is ready to use; its
// messages never alias the buffer it was given, nor each other.
type Decoder struct {
	names map[string]string
	rows  obs.Rows
}

// intern returns b as a string, the one it returned before for the same
// bytes if any; probing with the bytes themselves, a hit allocates nothing.
func (d *Decoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.names) < maxInterned {
		if d.names == nil {
			d.names = make(map[string]string)
		}
		d.names[s] = s
	}
	return s
}

// Decode is (*Decoder).Decode without a session: no name outlives the
// call that decoded it.
func Decode(buf []byte) (ver byte, typ byte, id uint32, msg any, n int, err error) {
	return (*Decoder)(nil).Decode(buf)
}

// Decode parses one frame from the front of buf, returning the frame
// version, type, request id, decoded message and the bytes consumed.
// ErrShort means buf holds only a prefix — accumulate more and retry;
// any other error, ErrBadVersion for a header that does not carry
// Version among them, is a protocol violation.
func (d *Decoder) Decode(b []byte) (ver byte, typ byte, id uint32, msg any, n int, err error) {
	ver, typ, id, body, n, err := split(b)
	if err == nil {
		msg, err = d.message(typ, body)
	}
	return ver, typ, id, msg, n, err
}

// message decodes the body of a typ frame.
func (d *Decoder) message(typ byte, body []byte) (any, error) {
	x, m := buf{b: body, dec: true, d: d}.body(typ, nil)
	if err := x.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// statsInto decodes the body of a Stats response or a StatsEvent into b,
// refilling b's arrays: whatever b held before is overwritten.
func (d *Decoder) statsInto(body []byte, b *api.StatsBuf) error {
	r := &b.Resp
	*r = api.StatsResponse{Services: r.Services[:0], Triggers: r.Triggers[:0], Registries: r.Registries[:0]}
	x := buf{b: body, dec: true, d: d, rows: &b.Rows}
	x.stats(r)
	return x.done()
}

// split parses the header of the frame at the front of b and finds its
// body and its length n.
func split(b []byte) (ver byte, typ byte, id uint32, body []byte, n int, err error) {
	if len(b) < 4 {
		return 0, 0, 0, nil, 0, ErrShort
	}
	length := int(binary.BigEndian.Uint32(b))
	if length > MaxFrame {
		return 0, 0, 0, nil, 0, ErrFrameTooBig
	}
	if length < headerLen-4 {
		return 0, 0, 0, nil, 0, fmt.Errorf("%w: length %d below header", ErrBadFrame, length)
	}
	if len(b) < 4+length {
		return 0, 0, 0, nil, 0, ErrShort
	}
	n = 4 + length
	ver = b[4]
	if ver != Version {
		return ver, 0, 0, nil, n, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	return ver, b[5], binary.BigEndian.Uint32(b[6:]), b[headerLen:n], n, nil
}
