package wire

import (
	"jitsu/internal/api"
	"jitsu/internal/core"
	"jitsu/internal/netstack"
	"jitsu/internal/unikernel"
	"jitsu/internal/xen"
)

// AppResolver rebuilds the application factory an Image lost in
// transit (App is an interface and never crosses the wire). A nil
// resolver leaves adopted images without an app — registrations still
// succeed, but activations would fail to boot.
type AppResolver func(name string, kind xen.GuestKind) unikernel.App

// ServerConfig is a wire server's session policy.
type ServerConfig struct {
	// Apps re-attaches App factories to images arriving in Register,
	// Restore and Transfer requests (nil = leave them app-less).
	Apps AppResolver

	// Keyring maps capability tokens to the scope each one grants.
	Keyring map[string]api.Scope
	// Anonymous is the scope granted to sessions that present no token.
	// ScopeNone refuses anonymous sessions outright.
	Anonymous api.Scope
}

// maxWatches caps one session's live WatchStats streams.
const maxWatches = 16

// Server binds a ControlPlane backend to a TCP port on a management
// host: each connection is granted a capability scope at the handshake,
// then request frames are decoded, checked against the scope,
// dispatched to the backend, and answered with response frames;
// callbacks fire back as event frames on the same connection.
// Connections are independent — each has its own request-id space and
// subscription registry, and one session's teardown never disturbs
// the others.
type Server struct {
	backend api.ControlPlane
	cfg     ServerConfig
	conns   map[*srvConn]struct{}

	// Conns counts accepted connections, Frames decoded request
	// frames, ProtoErrs connections dropped for protocol violations,
	// Unauthorized verbs refused for insufficient scope (plus sessions
	// refused at the handshake), WatchCancels watches reclaimed by
	// explicit TWatchCancel frames.
	Conns, Frames, ProtoErrs, Unauthorized, WatchCancels uint64
}

// Serve starts a wire server fronting backend on host's DefaultPort,
// under cfg's session policy.
func Serve(host *netstack.Host, backend api.ControlPlane, cfg ServerConfig) (*Server, error) {
	s := &Server{backend: backend, cfg: cfg, conns: make(map[*srvConn]struct{})}
	if _, err := host.ListenTCP(DefaultPort, func(conn *netstack.TCPConn) {
		s.Conns++
		sc := &srvConn{s: s, conn: conn, watches: make(map[uint32]func())}
		s.conns[sc] = struct{}{}
		conn.Attach(sc)
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// ActiveConns is the number of live (accepted, not yet torn down)
// sessions.
func (s *Server) ActiveConns() int { return len(s.conns) }

// ActiveWatches is the number of live WatchStats subscriptions across
// every session.
func (s *Server) ActiveWatches() int {
	n := 0
	for sc := range s.conns {
		n += len(sc.watches)
	}
	return n
}

// resolve fills in the App for an image that crossed the wire.
func (s *Server) resolve(img *unikernel.Image) {
	if s.cfg.Apps != nil && img.App == nil {
		img.App = s.cfg.Apps(img.Name, img.Kind)
	}
}

// resolveCp does the same for the image inside a checkpoint, if any.
func (s *Server) resolveCp(cp *core.Checkpoint) {
	if cp != nil {
		s.resolve(&cp.Image)
	}
}

// srvConn is one accepted connection's state: the session's tx scratch
// and inbound stream, the granted scope once Hello/HelloAck completed,
// the live WatchStats subscriptions keyed by their request id, and the
// buffer every Stats verb of the session is snapshotted into.
type srvConn struct {
	s       *Server
	conn    *netstack.TCPConn
	tx      []byte
	rd      inbound
	hello   bool
	closed  bool
	scope   api.Scope
	watches map[uint32]func()
	stats   api.StatsBuf
}

// Closed is the connection's end, and a session's on a protocol
// violation.
func (sc *srvConn) Closed(error) {
	sc.closed = true
	for id := range sc.watches {
		sc.stopWatch(id)
	}
	delete(sc.s.conns, sc)
}

// stopWatch ends the stream filed under id, if one is live.
func (sc *srvConn) stopWatch(id uint32) bool {
	stop, live := sc.watches[id]
	if live {
		stop()
		delete(sc.watches, id)
	}
	return live
}

// drop abandons the connection on a protocol violation.
func (sc *srvConn) drop() {
	sc.s.ProtoErrs++
	sc.Closed(nil)
	sc.conn.Abort()
}

// refuse answers the handshake with a turned-away HelloAck and closes
// the connection cleanly.
func (sc *srvConn) refuse(id uint32, err *api.Error) {
	sc.send(THelloAck, id, HelloAck{Version: 0, Scope: api.ScopeNone, Err: err})
	sc.conn.Close()
	sc.closed = true
	delete(sc.s.conns, sc)
}

// send frames msg and sends it: the handshake's acks, and the events
// whose message is already an any.
func (sc *srvConn) send(typ byte, id uint32, msg any) {
	x, _ := sc.begin(typ, id).body(typ, msg)
	sc.flush(x)
}

// begin starts a frame in the session's tx scratch.
func (sc *srvConn) begin(typ byte, id uint32) buf { return begin(sc.tx[:0], typ, id) }

// flush sends the frame x holds; one that cannot be framed is a
// violation of ours and drops the connection.
func (sc *srvConn) flush(x buf) {
	if sc.closed {
		return
	}
	buf, err := x.end()
	if err != nil {
		sc.drop()
		return
	}
	sc.tx = keep(buf)
	if sc.conn.Send(buf) != nil {
		sc.Closed(nil)
	}
}

// Data reassembles request frames and dispatches them; a framing error
// or a malformed body drops the session.
func (sc *srvConn) Data(b []byte) {
	if err := sc.rd.feed(b, sc.route); err != nil && !sc.closed {
		sc.drop()
	}
}

// handshake checks the offered range and authenticates the session,
// leaving sc.scope set — or the connection closed.
func (sc *srvConn) handshake(typ byte, id uint32, msg any) {
	h, ok := msg.(Hello)
	if typ != THello || !ok {
		sc.drop()
		return
	}
	if h.Min > Version || h.Max < Version {
		sc.refuse(id, nil)
		return
	}

	// Map the credential to a scope; without one the anonymous policy
	// decides.
	scope := sc.s.cfg.Anonymous
	if h.Token != "" {
		granted, known := sc.s.cfg.Keyring[h.Token]
		if !known {
			sc.s.Unauthorized++
			sc.refuse(id, api.Errf("hello", api.CodeUnauthorized, "unknown capability token"))
			return
		}
		scope = granted
	}
	if scope == api.ScopeNone {
		sc.s.Unauthorized++
		sc.refuse(id, api.Errf("hello", api.CodeUnauthorized,
			"anonymous sessions are refused; present a capability token"))
		return
	}

	sc.hello = true
	sc.scope = scope
	sc.send(THelloAck, id, HelloAck{Version: Version, Scope: scope})
}

// route serves one frame; an error is a malformed body, or a session
// closed meanwhile, which reads no further. A verb's request goes to its
// row, which decodes it as the type it is; the handshake and cancel
// frames are decoded here.
func (sc *srvConn) route(typ byte, id uint32, body []byte) error {
	if sc.closed {
		return ErrClosed
	}
	if sc.hello && typ >= TRegisterReq && typ <= TWatchReq {
		return verbs[typ-TRegisterReq].handle(sc, id, body)
	}
	x, msg := buf{b: body, dec: true}.body(typ, nil)
	if err := x.done(); err != nil {
		return err
	}
	switch {
	case !sc.hello:
		// The handshake gates everything: first frame must be Hello, and
		// exactly once.
		sc.handshake(typ, id, msg)
	case typ == TWatchCancel:
		sc.s.Frames++
		if sc.stopWatch(id) {
			sc.s.WatchCancels++
		}
	default:
		// A second Hello, or a response or event frame from a client, is
		// a violation at the server.
		sc.s.Frames++
		sc.drop()
	}
	return nil
}

// admit counts a verb's request frame and holds it to the capability
// gate: a verb above the session's scope is refused with its ordinary
// response frame — the session stays up.
func (sc *srvConn) admit(verb string) *api.Error {
	sc.s.Frames++
	need := api.RequiredScope(verb)
	if sc.scope.Allows(need) {
		return nil
	}
	sc.s.Unauthorized++
	return api.Errf(verb, api.CodeUnauthorized, "scope %s does not cover %s (needs %s)", sc.scope, verb, need)
}

// watch serves a WatchReq: snapshots go out as StatsEvent frames tagged
// with the request's id until the stream is cancelled or the session
// closes. A new id past maxWatches live streams is refused.
func (sc *srvConn) watch(id uint32, req WatchReq) WatchResp {
	// An id names one stream: a request on a live id replaces it, or the
	// old ticker, its Stop overwritten, would run until the close.
	if !sc.stopWatch(id) && len(sc.watches) >= maxWatches {
		return WatchResp{Err: api.Errf(api.VerbWatchStats, api.CodeUnavailable,
			"session already holds %d watches", maxWatches)}
	}
	resp := sc.s.backend.WatchStats(api.WatchStatsRequest{
		Every: req.Every,
		OnStats: func(s api.StatsResponse) bool {
			if sc.closed {
				return false
			}
			x := sc.begin(TStatsEvent, id)
			x.stats(&s)
			sc.flush(x)
			return !sc.closed
		},
	})
	if resp.Err == nil && resp.Stop != nil {
		sc.watches[id] = resp.Stop
	}
	return WatchResp{Err: resp.Err}
}

// readyEvent builds an OnReady callback that ships the outcome back as
// a ReadyEvent frame tagged with the request id; nil unless the client
// asked for one.
func (sc *srvConn) readyEvent(id uint32, want bool) func(error) {
	if !want {
		return nil
	}
	return func(err error) {
		ev := ReadyEvent{}
		if err != nil {
			if ae, ok := err.(*api.Error); ok {
				ev.Err = ae
			} else {
				ev.Err = api.Errf("ready", api.CodeUnavailable, "%v", err)
			}
		}
		sc.send(TReadyEvent, id, ev)
	}
}
