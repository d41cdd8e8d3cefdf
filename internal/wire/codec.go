package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/core"
	"jitsu/internal/obs"
	"jitsu/internal/unikernel"
	"jitsu/internal/xen"
)

// ---- wire-only message shapes ----
//
// Most verbs serialize api's own request/response structs. The ones
// below replace fields a wire cannot carry: callbacks become Want*
// flags (the peer delivers ReadyEvent/DoneEvent frames instead), and
// unikernel.Image.App — an interface — is dropped on encode and
// re-attached by the Server's app resolver.

// Hello opens a connection: the client's supported version range and,
// when the frame itself is V2-framed, a capability token. A V1-framed
// Hello never carries the token — it is elided on encode and zero on
// decode, which is exactly the downgrade semantics: a session that
// settles on V1 is anonymous.
type Hello struct {
	Min, Max uint16
	// Token is the capability credential (V2 framing only; empty =
	// anonymous).
	Token string
}

// HelloAck answers Hello: the highest version both sides speak, or 0
// when the ranges do not overlap or the credential was refused (the
// server closes after sending). In V2 framing it also carries the
// scope the session was granted and, on refusal, a typed error.
type HelloAck struct {
	Version uint16
	// Scope is the capability level granted to the session (V2 framing
	// only).
	Scope api.Scope
	// Err explains a refusal — CodeUnauthorized for a bad or missing
	// credential (V2 framing only; nil on acceptance).
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

// ---- primitive writer ----

type wbuf struct {
	b   []byte
	err error
}

func (w *wbuf) u8(v byte)     { w.b = append(w.b, v) }
func (w *wbuf) u16(v uint16)  { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *wbuf) u32(v uint32)  { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64)  { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *wbuf) i64(v int64)   { w.u64(uint64(v)) }
func (w *wbuf) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *wbuf) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *wbuf) str(s string) {
	if len(s) > math.MaxUint16 {
		w.err = fmt.Errorf("%w: string length %d", ErrBadFrame, len(s))
		s = s[:math.MaxUint16]
	}
	w.u16(uint16(len(s)))
	w.b = append(w.b, s...)
}

// count writes a collection length, refusing silent truncation.
func (w *wbuf) count(n int) {
	if n > math.MaxUint16 {
		w.err = fmt.Errorf("%w: collection length %d", ErrBadFrame, n)
		n = math.MaxUint16
	}
	w.u16(uint16(n))
}

// ---- primitive reader ----

type rbuf struct {
	b   []byte
	err error
	d   *Decoder // nil: names are not interned
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = ErrBadFrame
	}
}

func (r *rbuf) take(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.fail()
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *rbuf) u8() byte {
	if v := r.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (r *rbuf) u16() uint16 {
	if v := r.take(2); v != nil {
		return binary.BigEndian.Uint16(v)
	}
	return 0
}

func (r *rbuf) u32() uint32 {
	if v := r.take(4); v != nil {
		return binary.BigEndian.Uint32(v)
	}
	return 0
}

func (r *rbuf) u64() uint64 {
	if v := r.take(8); v != nil {
		return binary.BigEndian.Uint64(v)
	}
	return 0
}

func (r *rbuf) i64() int64   { return int64(r.u64()) }
func (r *rbuf) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *rbuf) bool() bool   { return r.u8() != 0 }

func (r *rbuf) str() string {
	n := int(r.u16())
	if v := r.take(n); v != nil {
		return string(v)
	}
	return ""
}

// name reads a service, trigger, registry or metric name — a string that
// recurs from frame to frame — through the session's intern table, if
// there is one. Error details and tokens use str.
func (r *rbuf) name() string {
	v := r.take(int(r.u16()))
	if r.d == nil || v == nil {
		return string(v)
	}
	return r.d.intern(v)
}

// sized reads a collection's declared count and gives *out room for it,
// capped by how many elements of at least elem bytes the rest of the
// body could hold: a frame cannot buy more memory than it carries. The
// caller still loops to the declared count, so a short body fails.
func sized[T any](r *rbuf, out *[]T, elem int) int {
	n := int(r.u16())
	*out = slices.Grow(*out, min(n, len(r.b)/elem)) // no room leaves it nil
	return n
}

// done finishes a strict decode: any sticky error or trailing bytes is
// a malformed frame.
func (r *rbuf) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(r.b))
	}
	return nil
}

// ---- composite fields ----

func putErr(w *wbuf, e *api.Error) {
	w.bool(e != nil)
	if e != nil {
		w.str(e.Op)
		w.u8(byte(e.Code))
		w.str(e.Detail)
	}
}

func getErr(r *rbuf) *api.Error {
	if !r.bool() {
		return nil
	}
	e := &api.Error{}
	e.Op = r.str()
	e.Code = api.Code(r.u8())
	e.Detail = r.str()
	return e
}

func putSel(w *wbuf, s api.BoardSel) { w.u32(uint32(int32(s))) }
func getSel(r *rbuf) api.BoardSel    { return api.BoardSel(int32(r.u32())) }

// putImage serializes an image minus its App interface; the Server's
// app resolver re-attaches one by (Name, Kind) on the receiving side.
func putImage(w *wbuf, img unikernel.Image) {
	w.str(img.Name)
	w.u8(byte(img.Kind))
	w.u32(uint32(int32(img.MemMiB)))
	w.f64(img.BinaryMiB)
}

func getImage(r *rbuf) unikernel.Image {
	var img unikernel.Image
	img.Name = r.str()
	img.Kind = xen.GuestKind(r.u8())
	img.MemMiB = int(int32(r.u32()))
	img.BinaryMiB = r.f64()
	return img
}

func putConfig(w *wbuf, cfg core.ServiceConfig) {
	w.str(cfg.Name)
	w.b = append(w.b, cfg.IP[:]...)
	w.u16(cfg.Port)
	putImage(w, cfg.Image)
	w.u32(cfg.TTL)
	w.i64(int64(cfg.IdleTimeout))
	w.u32(uint32(int32(cfg.StateMiB)))
}

func getConfig(r *rbuf) core.ServiceConfig {
	var cfg core.ServiceConfig
	cfg.Name = r.str()
	copy(cfg.IP[:], r.take(4))
	cfg.Port = r.u16()
	cfg.Image = getImage(r)
	cfg.TTL = r.u32()
	cfg.IdleTimeout = time.Duration(r.i64())
	cfg.StateMiB = int(int32(r.u32()))
	return cfg
}

func putCp(w *wbuf, cp *core.Checkpoint) {
	w.bool(cp != nil)
	if cp != nil {
		putImage(w, cp.Image)
		w.u32(uint32(int32(cp.StateMiB)))
	}
}

func getCp(r *rbuf) *core.Checkpoint {
	if !r.bool() {
		return nil
	}
	cp := &core.Checkpoint{}
	cp.Image = getImage(r)
	cp.StateMiB = int(int32(r.u32()))
	return cp
}

func putSnapshot(w *wbuf, s obs.Snapshot) {
	w.str(s.Name)
	w.count(len(s.Counters))
	for _, c := range s.Counters {
		w.str(c.Name)
		w.u64(c.Value)
	}
	w.count(len(s.Gauges))
	for _, g := range s.Gauges {
		w.str(g.Name)
		w.i64(g.Value)
	}
	w.count(len(s.Hists))
	for _, h := range s.Hists {
		w.str(h.Name)
		w.u64(h.Count)
		w.i64(int64(h.Sum))
		w.i64(int64(h.Max))
		w.count(len(h.Buckets))
		for _, b := range h.Buckets {
			w.u64(b)
		}
	}
}

func getSnapshot(r *rbuf) obs.Snapshot {
	s := obs.Snapshot{Name: r.name()}
	for i, n := 0, sized(r, &s.Counters, 2+8); i < n && r.err == nil; i++ {
		s.Counters = append(s.Counters, obs.CounterSnap{Name: r.name(), Value: r.u64()})
	}
	for i, n := 0, sized(r, &s.Gauges, 2+8); i < n && r.err == nil; i++ {
		s.Gauges = append(s.Gauges, obs.GaugeSnap{Name: r.name(), Value: r.i64()})
	}
	for i, n := 0, sized(r, &s.Hists, 2+8+8+8+2); i < n && r.err == nil; i++ {
		h := obs.HistSnap{Name: r.name(), Count: r.u64(),
			Sum: time.Duration(r.i64()), Max: time.Duration(r.i64())}
		for j, m := 0, sized(r, &h.Buckets, 8); j < m && r.err == nil; j++ {
			h.Buckets = append(h.Buckets, r.u64())
		}
		s.Hists = append(s.Hists, h)
	}
	return s
}

func putStats(w *wbuf, s api.StatsResponse) {
	w.count(len(s.Services))
	for _, sv := range s.Services {
		w.str(sv.Name)
		w.u8(byte(sv.State))
		w.u64(sv.Launches)
		w.u64(sv.ColdStarts)
		w.u64(sv.Handoffs)
		w.u64(sv.ServFails)
		w.u64(sv.Reaps)
		w.u64(sv.Restores)
		w.u64(sv.DiskRestores)
		w.u64(sv.Demotions)
	}
	w.count(len(s.Triggers))
	for _, t := range s.Triggers {
		w.str(t.Name)
		w.u64(t.Fired)
	}
	w.count(len(s.Registries))
	for _, reg := range s.Registries {
		putSnapshot(w, reg)
	}
	putErr(w, s.Err)
}

func getStats(r *rbuf) api.StatsResponse {
	var s api.StatsResponse
	for i, n := 0, sized(r, &s.Services, 2+1+8*8); i < n && r.err == nil; i++ {
		sv := api.ServiceStats{Name: r.name(), State: core.ServiceState(r.u8())}
		sv.Launches = r.u64()
		sv.ColdStarts = r.u64()
		sv.Handoffs = r.u64()
		sv.ServFails = r.u64()
		sv.Reaps = r.u64()
		sv.Restores = r.u64()
		sv.DiskRestores = r.u64()
		sv.Demotions = r.u64()
		s.Services = append(s.Services, sv)
	}
	for i, n := 0, sized(r, &s.Triggers, 2+8); i < n && r.err == nil; i++ {
		s.Triggers = append(s.Triggers, api.TriggerStats{Name: r.name(), Fired: r.u64()})
	}
	for i, n := 0, sized(r, &s.Registries, 2+2+2+2); i < n && r.err == nil; i++ {
		s.Registries = append(s.Registries, getSnapshot(r))
	}
	s.Err = getErr(r)
	return s
}

// ---- frame encode ----

// Append serializes one frame (header + body) onto dst, framed at
// protocol version ver (V1 or V2). The two versions differ only in
// the Hello/HelloAck bodies; every other frame encodes identically.
// The msg's Go type must match typ: the api request/response struct
// for plain verbs, or the wire-level shapes above for verbs with
// callbacks, events and negotiation frames. Empty-body frames
// (TStatsReq, TWatchCancel) take a nil msg.
func Append(dst []byte, ver byte, typ byte, id uint32, msg any) ([]byte, error) {
	if ver < MinVersion || ver > MaxVersion {
		return dst, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	w := &wbuf{b: dst}
	// Reserve the header; the length back-fills below.
	start := len(w.b)
	w.u32(0)
	w.u8(ver)
	w.u8(typ)
	w.u32(id)

	switch typ {
	case THello:
		m := msg.(Hello)
		w.u16(m.Min)
		w.u16(m.Max)
		if ver >= V2 {
			w.str(m.Token)
		}
	case THelloAck:
		m := msg.(HelloAck)
		w.u16(m.Version)
		if ver >= V2 {
			w.u8(byte(m.Scope))
			putErr(w, m.Err)
		}

	case TRegisterReq:
		m := msg.(api.RegisterRequest)
		putConfig(w, m.Config)
		w.u32(uint32(int32(m.MinWarm)))
		w.str(m.Policy)
	case TActivateReq:
		m := msg.(ActivateReq)
		w.str(m.Name)
		w.bool(m.Speculative)
		w.bool(m.WantReady)
	case TCheckpointReq:
		m := msg.(api.CheckpointRequest)
		w.str(m.Name)
		putSel(w, m.Board)
	case TRestoreReq:
		m := msg.(RestoreReq)
		w.str(m.Name)
		putCp(w, m.Checkpoint)
		putSel(w, m.Board)
		w.bool(m.ToDisk)
		w.bool(m.WantReady)
	case TMigrateReq:
		m := msg.(MigrateReq)
		w.str(m.Name)
		putSel(w, m.From)
		putSel(w, m.To)
		w.bool(m.WantDone)
	case TTransferReq:
		m := msg.(TransferReq)
		putConfig(w, m.Config)
		w.u32(uint32(int32(m.MinWarm)))
		w.str(m.Policy)
		putCp(w, m.Checkpoint)
		w.bool(m.ToDisk)
		w.bool(m.WantReady)
	case TDemoteReq:
		m := msg.(api.DemoteRequest)
		w.str(m.Name)
		putSel(w, m.Board)
	case TPromoteReq:
		m := msg.(PromoteReq)
		w.str(m.Name)
		putSel(w, m.Board)
		w.bool(m.WantReady)
	case TStopReq:
		w.str(msg.(api.StopRequest).Name)
	case TStatsReq, TWatchCancel:
		// empty body
	case TWatchReq:
		w.i64(int64(msg.(WatchReq).Every))

	case TRegisterResp:
		m := msg.(api.RegisterResponse)
		w.str(m.Name)
		putErr(w, m.Err)
	case TActivateResp:
		m := msg.(api.ActivateResponse)
		w.b = append(w.b, m.IP[:]...)
		w.u32(uint32(int32(m.Board)))
		w.u8(byte(m.State))
		putErr(w, m.Err)
	case TCheckpointResp:
		m := msg.(api.CheckpointResponse)
		putCp(w, m.Checkpoint)
		w.u32(uint32(int32(m.Board)))
		putErr(w, m.Err)
	case TRestoreResp:
		putErr(w, msg.(api.RestoreResponse).Err)
	case TMigrateResp:
		m := msg.(api.MigrateResponse)
		w.bool(m.Started)
		putErr(w, m.Err)
	case TTransferResp:
		m := msg.(api.TransferResponse)
		w.u32(uint32(int32(m.Board)))
		putErr(w, m.Err)
	case TDemoteResp:
		m := msg.(api.DemoteResponse)
		w.u32(uint32(int32(m.Demoted)))
		putErr(w, m.Err)
	case TPromoteResp:
		m := msg.(api.PromoteResponse)
		w.u32(uint32(int32(m.Board)))
		putErr(w, m.Err)
	case TStopResp:
		m := msg.(api.StopResponse)
		w.u32(uint32(int32(m.Stopped)))
		putErr(w, m.Err)
	case TStatsResp, TStatsEvent:
		putStats(w, msg.(api.StatsResponse))
	case TWatchResp:
		putErr(w, msg.(WatchResp).Err)

	case TReadyEvent:
		putErr(w, msg.(ReadyEvent).Err)
	case TDoneEvent:
		w.bool(msg.(DoneEvent).OK)

	default:
		return dst, fmt.Errorf("%w: 0x%02x", ErrUnknownType, typ)
	}
	if w.err != nil {
		return dst, w.err
	}
	n := len(w.b) - start - 4
	if n > MaxFrame {
		return dst, ErrFrameTooBig
	}
	binary.BigEndian.PutUint32(w.b[start:], uint32(n))
	return w.b, nil
}

// ---- frame decode ----

// maxInterned caps a Decoder's name table; past it names allocate per
// frame, as they do without a Decoder.
const maxInterned = 4096

// Decoder is one session's decoding state: the names its stats frames
// repeat, snapshot after snapshot — services, triggers, registries,
// metrics — are allocated once and handed out again. The zero value is
// ready to use; its messages never alias the buffer it was given.
type Decoder struct{ names map[string]string }

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
// Both protocol versions are accepted — sessions enforce that frames
// carry their negotiated version, the codec does not. ErrShort means
// buf holds only a prefix — accumulate more and retry; any other
// error is a protocol violation.
func (d *Decoder) Decode(buf []byte) (ver byte, typ byte, id uint32, msg any, n int, err error) {
	if len(buf) < 4 {
		return 0, 0, 0, nil, 0, ErrShort
	}
	length := int(binary.BigEndian.Uint32(buf))
	if length > MaxFrame {
		return 0, 0, 0, nil, 0, ErrFrameTooBig
	}
	if length < headerLen-4 {
		return 0, 0, 0, nil, 0, fmt.Errorf("%w: length %d below header", ErrBadFrame, length)
	}
	if len(buf) < 4+length {
		return 0, 0, 0, nil, 0, ErrShort
	}
	n = 4 + length
	ver = buf[4]
	if ver < MinVersion || ver > MaxVersion {
		return ver, 0, 0, nil, n, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	typ = buf[5]
	id = binary.BigEndian.Uint32(buf[6:])
	msg, err = d.decodeBody(ver, typ, buf[headerLen:n])
	return ver, typ, id, msg, n, err
}

func (d *Decoder) decodeBody(ver byte, typ byte, body []byte) (any, error) {
	r := &rbuf{b: body, d: d}
	var msg any
	switch typ {
	case THello:
		m := Hello{Min: r.u16(), Max: r.u16()}
		if ver >= V2 {
			m.Token = r.str()
		}
		msg = m
	case THelloAck:
		m := HelloAck{Version: r.u16()}
		if ver >= V2 {
			m.Scope = api.Scope(r.u8())
			m.Err = getErr(r)
		}
		msg = m

	case TRegisterReq:
		var m api.RegisterRequest
		m.Config = getConfig(r)
		m.MinWarm = int(int32(r.u32()))
		m.Policy = r.str()
		msg = m
	case TActivateReq:
		msg = ActivateReq{Name: r.str(), Speculative: r.bool(), WantReady: r.bool()}
	case TCheckpointReq:
		msg = api.CheckpointRequest{Name: r.str(), Board: getSel(r)}
	case TRestoreReq:
		msg = RestoreReq{Name: r.str(), Checkpoint: getCp(r),
			Board: getSel(r), ToDisk: r.bool(), WantReady: r.bool()}
	case TMigrateReq:
		msg = MigrateReq{Name: r.str(), From: getSel(r), To: getSel(r), WantDone: r.bool()}
	case TTransferReq:
		var m TransferReq
		m.Config = getConfig(r)
		m.MinWarm = int(int32(r.u32()))
		m.Policy = r.str()
		m.Checkpoint = getCp(r)
		m.ToDisk = r.bool()
		m.WantReady = r.bool()
		msg = m
	case TDemoteReq:
		msg = api.DemoteRequest{Name: r.str(), Board: getSel(r)}
	case TPromoteReq:
		msg = PromoteReq{Name: r.str(), Board: getSel(r), WantReady: r.bool()}
	case TStopReq:
		msg = api.StopRequest{Name: r.str()}
	case TStatsReq:
		msg = api.StatsRequest{}
	case TWatchReq:
		msg = WatchReq{Every: time.Duration(r.i64())}
	case TWatchCancel:
		msg = struct{}{}

	case TRegisterResp:
		msg = api.RegisterResponse{Name: r.str(), Err: getErr(r)}
	case TActivateResp:
		var m api.ActivateResponse
		copy(m.IP[:], r.take(4))
		m.Board = int(int32(r.u32()))
		m.State = core.ServiceState(r.u8())
		m.Err = getErr(r)
		msg = m
	case TCheckpointResp:
		msg = api.CheckpointResponse{Checkpoint: getCp(r),
			Board: int(int32(r.u32())), Err: getErr(r)}
	case TRestoreResp:
		msg = api.RestoreResponse{Err: getErr(r)}
	case TMigrateResp:
		msg = api.MigrateResponse{Started: r.bool(), Err: getErr(r)}
	case TTransferResp:
		msg = api.TransferResponse{Board: int(int32(r.u32())), Err: getErr(r)}
	case TDemoteResp:
		msg = api.DemoteResponse{Demoted: int(int32(r.u32())), Err: getErr(r)}
	case TPromoteResp:
		msg = api.PromoteResponse{Board: int(int32(r.u32())), Err: getErr(r)}
	case TStopResp:
		msg = api.StopResponse{Stopped: int(int32(r.u32())), Err: getErr(r)}
	case TStatsResp, TStatsEvent:
		msg = getStats(r)
	case TWatchResp:
		msg = WatchResp{Err: getErr(r)}

	case TReadyEvent:
		msg = ReadyEvent{Err: getErr(r)}
	case TDoneEvent:
		msg = DoneEvent{OK: r.bool()}

	default:
		return nil, fmt.Errorf("%w: 0x%02x", ErrUnknownType, typ)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return msg, nil
}
