package wire

import (
	"jitsu/internal/api"
	"jitsu/internal/netstack"
	"jitsu/internal/unikernel"
	"jitsu/internal/xen"
)

// AppResolver rebuilds the application factory an Image lost in
// transit (App is an interface and never crosses the wire). A nil
// resolver leaves adopted images without an app — registrations still
// succeed, but activations would fail to boot.
type AppResolver func(name string, kind xen.GuestKind) unikernel.App

// ServerConfig shapes a wire server's session policy.
type ServerConfig struct {
	// Backend is the control plane the server fronts (required).
	Backend api.ControlPlane
	// Apps re-attaches App factories to images arriving in Register,
	// Restore and Transfer requests (nil = leave them app-less).
	Apps AppResolver

	// Keyring maps capability tokens to the scope each one grants.
	// Tokens are only usable on V2 sessions — a V1 session has no way
	// to present one.
	Keyring map[string]api.Scope
	// Anonymous is the scope granted to sessions that present no token
	// (every V1 session, and V2 sessions with an empty token).
	// ScopeNone refuses anonymous sessions outright.
	Anonymous api.Scope

	// MinVersion and MaxVersion clamp the protocol range this server
	// speaks; zero values default to the package's full MinVersion..
	// MaxVersion range. MaxVersion: V1 makes a genuine v1-only peer
	// for interop testing.
	MinVersion, MaxVersion uint16
}

// Server binds a ControlPlane backend to a TCP port on a management
// host: each connection negotiates a protocol version and a
// capability scope, then request frames are decoded, checked against
// the scope, dispatched to the backend, and answered with response
// frames; callbacks fire back as event frames on the same connection.
// Connections are independent — each has its own request-id space and
// subscription registry, and one session's teardown never disturbs
// the others.
type Server struct {
	cfg   ServerConfig
	ln    *netstack.TCPListener
	conns map[*srvConn]struct{}

	// Conns counts accepted connections, Frames decoded request
	// frames, ProtoErrs connections dropped for protocol violations,
	// Unauthorized verbs refused for insufficient scope (plus sessions
	// refused at the handshake), WatchCancels watches reclaimed by
	// explicit TWatchCancel frames.
	Conns, Frames, ProtoErrs, Unauthorized, WatchCancels uint64
}

// ServeWith starts a wire server on host:port with an explicit
// session policy.
func ServeWith(host *netstack.Host, port uint16, cfg ServerConfig) (*Server, error) {
	if cfg.MinVersion == 0 {
		cfg.MinVersion = MinVersion
	}
	if cfg.MaxVersion == 0 {
		cfg.MaxVersion = MaxVersion
	}
	s := &Server{cfg: cfg, conns: make(map[*srvConn]struct{})}
	ln, err := host.ListenTCP(port, func(conn *netstack.TCPConn) {
		s.Conns++
		sc := &srvConn{s: s, conn: conn, watches: make(map[uint32]func())}
		s.conns[sc] = struct{}{}
		conn.OnData(sc.onData)
		conn.OnClose(sc.onClose)
	})
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return s, nil
}

// Close stops accepting new connections.
func (s *Server) Close() { s.ln.Close() }

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

// srvConn is one accepted connection's state: the session's tx scratch
// and rx reassembly buffer (frames before rxoff are consumed), the
// negotiated version and granted scope once Hello/HelloAck completed,
// and the live WatchStats subscriptions keyed by their request id.
type srvConn struct {
	s       *Server
	conn    *netstack.TCPConn
	tx, rx  []byte
	rxoff   int
	hello   bool
	closed  bool
	ver     byte
	scope   api.Scope
	watches map[uint32]func()
}

func (sc *srvConn) onClose(error) {
	sc.closed = true
	for id, stop := range sc.watches {
		stop()
		delete(sc.watches, id)
	}
	delete(sc.s.conns, sc)
}

// drop abandons the connection on a protocol violation.
func (sc *srvConn) drop() {
	sc.s.ProtoErrs++
	sc.onClose(nil)
	sc.conn.Abort()
}

// refuse answers the handshake with a turned-away HelloAck framed at
// ackVer and closes the connection cleanly.
func (sc *srvConn) refuse(ackVer byte, id uint32, err *api.Error) {
	sc.send(ackVer, THelloAck, id, HelloAck{Version: 0, Scope: api.ScopeNone, Err: err})
	sc.conn.Close()
	sc.closed = true
	delete(sc.s.conns, sc)
}

func (sc *srvConn) send(ver byte, typ byte, id uint32, msg any) {
	if sc.closed {
		return
	}
	buf, err := Append(sc.tx[:0], ver, typ, id, msg)
	if err != nil {
		sc.drop()
		return
	}
	sc.tx = keep(buf)
	if sc.conn.Send(buf) != nil {
		sc.onClose(nil)
	}
}

func (sc *srvConn) onData(b []byte) {
	sc.rx = append(sc.rx, b...)
	for !sc.closed {
		ver, typ, id, msg, n, err := Decode(sc.rx[sc.rxoff:])
		if err == ErrShort {
			sc.rx, sc.rxoff = compact(sc.rx, sc.rxoff), 0
			return
		}
		if err != nil {
			sc.drop()
			return
		}
		sc.rxoff += n
		// Post-handshake frames must carry the negotiated version.
		if sc.hello && ver != sc.ver {
			sc.drop()
			return
		}
		sc.dispatch(ver, typ, id, msg)
	}
}

// handshake negotiates the protocol version and authenticates the
// session, leaving sc.ver and sc.scope set — or the connection closed.
func (sc *srvConn) handshake(ver byte, typ byte, id uint32, msg any) {
	h, ok := msg.(Hello)
	if typ != THello || !ok {
		sc.drop()
		return
	}
	// The refusal ack must be framed at a version the client can
	// decode: its offered Max, clamped to what this server speaks.
	ackVer := byte(sc.s.cfg.MaxVersion)
	if h.Max < uint16(ackVer) && h.Max >= MinVersion {
		ackVer = byte(h.Max)
	}
	// Highest version inside both [Min,Max] ranges, or refusal.
	neg := h.Max
	if uint16(sc.s.cfg.MaxVersion) < neg {
		neg = sc.s.cfg.MaxVersion
	}
	if neg < h.Min || neg < sc.s.cfg.MinVersion {
		sc.refuse(ackVer, id, nil)
		return
	}

	// Map the credential to a scope. On a V1 session the token is
	// elided — even if the Hello frame was V2-framed and carried one —
	// and the anonymous policy decides.
	scope := sc.s.cfg.Anonymous
	if neg >= V2 && h.Token != "" {
		granted, known := sc.s.cfg.Keyring[h.Token]
		if !known {
			sc.s.Unauthorized++
			sc.refuse(byte(neg), id,
				api.Errf("hello", api.CodeUnauthorized, "unknown capability token"))
			return
		}
		scope = granted
	}
	if scope == api.ScopeNone {
		sc.s.Unauthorized++
		var err *api.Error
		if neg >= V2 {
			err = api.Errf("hello", api.CodeUnauthorized,
				"anonymous sessions are refused; present a capability token")
		}
		sc.refuse(byte(neg), id, err)
		return
	}

	sc.hello = true
	sc.ver = byte(neg)
	sc.scope = scope
	sc.send(sc.ver, THelloAck, id, HelloAck{Version: neg, Scope: scope})
}

func (sc *srvConn) dispatch(ver byte, typ byte, id uint32, msg any) {
	// The handshake gates everything: first frame must be Hello, and
	// exactly once.
	if !sc.hello {
		sc.handshake(ver, typ, id, msg)
		return
	}
	sc.s.Frames++

	// Capability gate: a verb above the session's scope is refused
	// with its ordinary response frame — the session stays up.
	if typ >= TRegisterReq && typ <= TWatchReq {
		op := opName(typ)
		if need := api.RequiredScope(op); !sc.scope.Allows(need) {
			sc.s.Unauthorized++
			sc.send(sc.ver, respOf(typ), id, unauthorizedResp(typ,
				api.Errf(op, api.CodeUnauthorized,
					"scope %s does not cover %s (needs %s)", sc.scope, op, need)))
			return
		}
	}

	switch typ {
	case THello:
		sc.drop() // a second Hello is a protocol violation

	case TRegisterReq:
		req := msg.(api.RegisterRequest)
		sc.s.resolve(&req.Config.Image)
		sc.send(sc.ver, respOf(typ), id, sc.s.cfg.Backend.Register(req))
	case TActivateReq:
		m := msg.(ActivateReq)
		req := api.ActivateRequest{Name: m.Name, Speculative: m.Speculative}
		if m.WantReady {
			req.OnReady = sc.readyEvent(id)
		}
		sc.send(sc.ver, respOf(typ), id, sc.s.cfg.Backend.Activate(req))
	case TCheckpointReq:
		sc.send(sc.ver, respOf(typ), id, sc.s.cfg.Backend.Checkpoint(msg.(api.CheckpointRequest)))
	case TRestoreReq:
		m := msg.(RestoreReq)
		if m.Checkpoint != nil {
			sc.s.resolve(&m.Checkpoint.Image)
		}
		req := api.RestoreRequest{Name: m.Name, Checkpoint: m.Checkpoint,
			Board: m.Board, ToDisk: m.ToDisk}
		if m.WantReady {
			req.OnReady = sc.readyEvent(id)
		}
		sc.send(sc.ver, respOf(typ), id, sc.s.cfg.Backend.Restore(req))
	case TMigrateReq:
		m := msg.(MigrateReq)
		req := api.MigrateRequest{Name: m.Name, From: m.From, To: m.To}
		if m.WantDone {
			req.OnDone = func(ok bool) { sc.send(sc.ver, TDoneEvent, id, DoneEvent{OK: ok}) }
		}
		sc.send(sc.ver, respOf(typ), id, sc.s.cfg.Backend.Migrate(req))
	case TTransferReq:
		m := msg.(TransferReq)
		sc.s.resolve(&m.Config.Image)
		if m.Checkpoint != nil {
			sc.s.resolve(&m.Checkpoint.Image)
		}
		req := api.TransferRequest{Config: m.Config, MinWarm: m.MinWarm,
			Policy: m.Policy, Checkpoint: m.Checkpoint, ToDisk: m.ToDisk}
		if m.WantReady {
			req.OnReady = sc.readyEvent(id)
		}
		sc.send(sc.ver, respOf(typ), id, sc.s.cfg.Backend.Transfer(req))
	case TDemoteReq:
		sc.send(sc.ver, respOf(typ), id, sc.s.cfg.Backend.Demote(msg.(api.DemoteRequest)))
	case TPromoteReq:
		m := msg.(PromoteReq)
		req := api.PromoteRequest{Name: m.Name, Board: m.Board}
		if m.WantReady {
			req.OnReady = sc.readyEvent(id)
		}
		sc.send(sc.ver, respOf(typ), id, sc.s.cfg.Backend.Promote(req))
	case TStopReq:
		sc.send(sc.ver, respOf(typ), id, sc.s.cfg.Backend.Stop(msg.(api.StopRequest)))
	case TStatsReq:
		sc.send(sc.ver, respOf(typ), id, sc.s.cfg.Backend.Stats(api.StatsRequest{}))
	case TWatchReq:
		m := msg.(WatchReq)
		// An id names one stream: a request on a live id replaces it, or
		// the old ticker, its Stop overwritten, would run until the close.
		if stop, live := sc.watches[id]; live {
			stop()
			delete(sc.watches, id)
		}
		resp := sc.s.cfg.Backend.WatchStats(api.WatchStatsRequest{
			Every: m.Every,
			OnStats: func(s api.StatsResponse) bool {
				if sc.closed {
					return false
				}
				sc.send(sc.ver, TStatsEvent, id, s)
				return !sc.closed
			},
		})
		if resp.Err == nil && resp.Stop != nil {
			sc.watches[id] = resp.Stop
		}
		sc.send(sc.ver, respOf(typ), id, WatchResp{Err: resp.Err})
	case TWatchCancel:
		if stop, ok := sc.watches[id]; ok {
			stop()
			delete(sc.watches, id)
			sc.s.WatchCancels++
		}

	default:
		// Response/event frames from a client (or future request types)
		// are violations at the server.
		sc.drop()
	}
}

// unauthorizedResp builds the request type's ordinary response struct
// carrying the refusal, so clients see the typed error through the
// verb they called.
func unauthorizedResp(typ byte, err *api.Error) any {
	switch typ {
	case TRegisterReq:
		return api.RegisterResponse{Err: err}
	case TActivateReq:
		return api.ActivateResponse{Err: err}
	case TCheckpointReq:
		return api.CheckpointResponse{Err: err}
	case TRestoreReq:
		return api.RestoreResponse{Err: err}
	case TMigrateReq:
		return api.MigrateResponse{Err: err}
	case TTransferReq:
		return api.TransferResponse{Err: err}
	case TDemoteReq:
		return api.DemoteResponse{Err: err}
	case TPromoteReq:
		return api.PromoteResponse{Err: err}
	case TStopReq:
		return api.StopResponse{Err: err}
	case TStatsReq:
		return api.StatsResponse{Err: err}
	case TWatchReq:
		return WatchResp{Err: err}
	}
	return WatchResp{Err: err}
}

// readyEvent builds an OnReady callback that ships the outcome back as
// a ReadyEvent frame tagged with the request id.
func (sc *srvConn) readyEvent(id uint32) func(error) {
	return func(err error) {
		ev := ReadyEvent{}
		if err != nil {
			if ae, ok := err.(*api.Error); ok {
				ev.Err = ae
			} else {
				ev.Err = api.Errf("ready", api.CodeUnavailable, "%v", err)
			}
		}
		sc.send(sc.ver, TReadyEvent, id, ev)
	}
}
