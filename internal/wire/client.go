package wire

import (
	"jitsu/internal/api"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// Client speaks the wire protocol over one TCP connection and presents
// the remote deployment as a local api.ControlPlane. Verbs are
// synchronous from the caller's perspective: each one sends a request
// frame and then pumps the simulation engine until the response frame
// arrives — so a Client must be driven from OUTSIDE engine callbacks
// (an operator loop, a test, a command main), never from inside an
// event handler, where pumping would recurse into dispatch.
//
// Remote OnReady/OnDone callbacks and WatchStats snapshots arrive as
// event frames whenever the engine runs — including during other
// verbs' pumping — and fire the locally-registered closures.
type Client struct {
	eng    *sim.Engine
	conn   *netstack.TCPConn
	dec    Decoder
	tx     []byte
	rd     inbound
	nextID uint32
	scope  api.Scope

	resps   map[uint32]any
	pending map[uint32]hooks // by request id: callbacks still waiting for events

	closed   bool
	closeErr error

	// Frames counts decoded inbound frames; Events the subset that were
	// ready/done/stats events.
	Frames, Events uint64
}

// SessionConfig shapes one operator session.
type SessionConfig struct {
	// Token is the capability credential presented in the Hello; empty
	// dials anonymously, and whether that is accepted is server policy.
	Token string
}

// DialSession connects host to the wire server at dst:port, completes
// the TCP handshake and the Hello/HelloAck exchange, and returns a
// ready Client. It pumps eng until the handshake settles, so call it
// from outside engine callbacks. A refused credential surfaces as an
// *api.Error with CodeUnauthorized.
func DialSession(eng *sim.Engine, host *netstack.Host, dst netstack.IP, port uint16, cfg SessionConfig) (*Client, error) {
	c := &Client{
		eng:     eng,
		resps:   make(map[uint32]any),
		pending: make(map[uint32]hooks),
	}
	var dialErr error
	connected := false
	host.DialTCP(dst, port, func(conn *netstack.TCPConn, err error) {
		connected = true
		dialErr = err
		c.conn = conn
	})
	if err := c.pump(eng, func() bool { return connected }); err != nil {
		return nil, err
	}
	if dialErr != nil {
		return nil, dialErr
	}
	c.conn.Attach((*clientConn)(c))

	id := c.id()
	if err := c.sendFrame(THello, id, Hello{Min: Version, Max: Version, Token: cfg.Token}); err != nil {
		return nil, err
	}
	if err := c.pump(eng, func() bool { _, ok := c.resps[id]; return ok }); err != nil {
		return nil, err
	}
	ack, ok := c.resps[id].(HelloAck)
	delete(c.resps, id)
	if !ok || ack.Version == 0 {
		c.conn.Close()
		c.closed = true
		if ok && ack.Err != nil {
			return nil, ack.Err
		}
		return nil, ErrNoVersion
	}
	c.scope = ack.Scope
	return c, nil
}

// Close ends the session: outstanding watches are cancelled
// server-side via TWatchCancel frames (flushed before the FIN), every
// callback registration is dropped — Pending reads 0 afterwards — and
// the connection is shut down.
func (c *Client) Close() {
	if c.conn != nil && !c.closed {
		for id, h := range c.pending {
			if h.stats != nil {
				c.sendFrame(TWatchCancel, id, nil)
			}
		}
		c.conn.Close()
	}
	c.closed = true
	clear(c.pending)
}

// Scope is the capability scope the server granted this session.
func (c *Client) Scope() api.Scope { return c.scope }

// Pending is the number of callback registrations still waiting for a
// Ready/Done event or streaming stats. Verbs that fail — on the
// transport or with an application error — drop their registration,
// since the matching event will never arrive; a Pending count that
// only grows is a leak.
func (c *Client) Pending() int { return len(c.pending) }

func (c *Client) id() uint32 {
	c.nextID++
	return c.nextID
}

// pump steps the engine until done() or the connection/engine dies.
func (c *Client) pump(eng *sim.Engine, done func() bool) error {
	for !done() {
		if c.closed {
			if c.closeErr != nil {
				return c.closeErr
			}
			return ErrClosed
		}
		if !eng.Step() {
			return ErrClosed // event queue drained with no answer coming
		}
	}
	return nil
}

func (c *Client) sendFrame(typ byte, id uint32, msg any) error {
	buf, err := Append(c.tx[:0], Version, typ, id, msg)
	if err != nil {
		return err
	}
	c.tx = keep(buf)
	return c.conn.Send(buf)
}

// clientConn is the Client as its connection's application.
type clientConn Client

// Data reassembles frames and routes them: responses park in resps for
// a pumping verb to collect, events fire their registered closures
// immediately. A closure may issue a verb, whose pumping re-enters Data
// (feed keeps the frames in order).
func (a *clientConn) Data(b []byte) {
	if err := a.rd.feed(b, (*Client)(a).route); err != nil {
		a.closed = true
		a.closeErr = err
		a.conn.Abort()
	}
}

func (a *clientConn) Closed(err error) {
	a.closed = true
	if err != nil {
		a.closeErr = err
	}
}

// route decodes one frame and delivers it; the decode comes first, so a
// closure that re-enters Data finds the frame's bytes no longer needed.
// A stream's snapshot, and a Stats response given an Into buffer, are
// decoded into their buffers; every other message by the session decoder.
func (c *Client) route(typ byte, id uint32, body []byte) error {
	h := c.pending[id]
	var msg any
	var err error
	switch {
	case typ == TStatsEvent && h.stats != nil:
		h.into = &h.stats.buf
		if h.stats.busy { // OnStats pumped through this tick: it gets its own
			h.into = new(api.StatsBuf)
		}
		err = c.dec.statsInto(body, h.into)
	case typ == TStatsResp && h.into != nil:
		err = c.dec.statsInto(body, h.into)
		msg = h.into.Resp
	default:
		msg, err = c.dec.message(typ, body)
	}
	if err != nil {
		return err
	}
	c.Frames++
	switch typ {
	case TReadyEvent:
		c.Events++
		if h.ready != nil {
			delete(c.pending, id)
			if ev := msg.(ReadyEvent); ev.Err != nil {
				h.ready(ev.Err)
			} else {
				h.ready(nil)
			}
		}
	case TDoneEvent:
		c.Events++
		if h.done != nil {
			delete(c.pending, id)
			h.done(msg.(DoneEvent).OK)
		}
	case TStatsEvent:
		c.Events++
		if s := h.stats; s != nil {
			busy := s.busy
			s.busy = true
			more := s.onStats(h.into.Resp)
			if s.busy = busy; !more {
				delete(c.pending, id)
				c.sendFrame(TWatchCancel, id, nil)
			}
		}
	default:
		c.resps[id] = msg
	}
	return nil
}

// hooks are the callbacks a request leaves behind for its events, or
// the buffer its response is decoded into: at most one of them is set.
type hooks struct {
	ready func(error)   // ReadyEvent
	done  func(bool)    // DoneEvent
	stats *stream       // StatsEvent, until OnStats returns false
	into  *api.StatsBuf // the Stats response
}

// stream is one WatchStats stream's client end: its OnStats, and the
// buffer each StatsEvent is decoded into for OnStats to read until it
// returns. busy is set while OnStats runs.
type stream struct {
	onStats func(api.StatsResponse) bool
	buf     api.StatsBuf
	busy    bool
}

// do runs one verb: allocate the request id, file the callbacks its
// events will fire, send the request and pump until the response. A
// verb that fails — on the transport or at the server — drops its
// callbacks again, since no event will follow, and a response buffer is
// dropped once the response is in.
func (c *Client) do(typ byte, req any, h hooks) (resp any, id uint32) {
	v := &verbs[typ-TRegisterReq]
	id = c.id()
	if h.ready != nil || h.done != nil || h.stats != nil || h.into != nil {
		c.pending[id] = h
	}
	var err error
	if c.closed {
		err = c.closeState()
	} else if err = c.sendFrame(typ, id, req); err == nil {
		err = c.pump(c.eng, func() bool { _, ok := c.resps[id]; return ok })
	}
	if err != nil {
		resp = v.refuse(api.Errf(v.name, api.CodeUnavailable, "wire: %v", err))
	} else {
		resp = c.resps[id]
		delete(c.resps, id)
	}
	if v.errOf(resp) != nil || h.into != nil {
		delete(c.pending, id)
	}
	return resp, id
}

// call is do for the verbs that have no use for the request id.
func call[R any](c *Client, typ byte, req any, h hooks) R {
	resp, _ := c.do(typ, req, h)
	return resp.(R)
}

func (c *Client) closeState() error {
	if c.closeErr != nil {
		return c.closeErr
	}
	return ErrClosed
}

// ---- api.ControlPlane ----

// Register implements api.ControlPlane.
func (c *Client) Register(req api.RegisterRequest) api.RegisterResponse {
	return call[api.RegisterResponse](c, TRegisterReq, req, hooks{})
}

// Activate implements api.ControlPlane.
func (c *Client) Activate(req api.ActivateRequest) api.ActivateResponse {
	return call[api.ActivateResponse](c, TActivateReq, ActivateReq{Name: req.Name,
		Speculative: req.Speculative, WantReady: req.OnReady != nil}, hooks{ready: req.OnReady})
}

// Checkpoint implements api.ControlPlane.
func (c *Client) Checkpoint(req api.CheckpointRequest) api.CheckpointResponse {
	return call[api.CheckpointResponse](c, TCheckpointReq, req, hooks{})
}

// Restore implements api.ControlPlane.
func (c *Client) Restore(req api.RestoreRequest) api.RestoreResponse {
	return call[api.RestoreResponse](c, TRestoreReq, RestoreReq{Name: req.Name, Checkpoint: req.Checkpoint,
		Board: req.Board, ToDisk: req.ToDisk, WantReady: req.OnReady != nil}, hooks{ready: req.OnReady})
}

// Migrate implements api.ControlPlane.
func (c *Client) Migrate(req api.MigrateRequest) api.MigrateResponse {
	return call[api.MigrateResponse](c, TMigrateReq, MigrateReq{Name: req.Name,
		From: req.From, To: req.To, WantDone: req.OnDone != nil}, hooks{done: req.OnDone})
}

// Transfer implements api.ControlPlane.
func (c *Client) Transfer(req api.TransferRequest) api.TransferResponse {
	return call[api.TransferResponse](c, TTransferReq, TransferReq{Config: req.Config, MinWarm: req.MinWarm,
		Policy: req.Policy, Checkpoint: req.Checkpoint, ToDisk: req.ToDisk,
		WantReady: req.OnReady != nil}, hooks{ready: req.OnReady})
}

// Demote implements api.ControlPlane.
func (c *Client) Demote(req api.DemoteRequest) api.DemoteResponse {
	return call[api.DemoteResponse](c, TDemoteReq, req, hooks{})
}

// Promote implements api.ControlPlane.
func (c *Client) Promote(req api.PromoteRequest) api.PromoteResponse {
	return call[api.PromoteResponse](c, TPromoteReq, PromoteReq{Name: req.Name,
		Board: req.Board, WantReady: req.OnReady != nil}, hooks{ready: req.OnReady})
}

// Stop implements api.ControlPlane.
func (c *Client) Stop(req api.StopRequest) api.StopResponse {
	return call[api.StopResponse](c, TStopReq, req, hooks{})
}

// Stats implements api.ControlPlane: with req.Into set, the response
// frame is decoded into that buffer.
func (c *Client) Stats(req api.StatsRequest) api.StatsResponse {
	return call[api.StatsResponse](c, TStatsReq, req, hooks{into: req.Into})
}

// WatchStats implements api.ControlPlane: snapshots stream in as
// StatsEvent frames, each decoded into the one buffer the stream keeps,
// and fire OnStats; the returned Stop sends a cancel frame upstream.
func (c *Client) WatchStats(req api.WatchStatsRequest) api.WatchStatsResponse {
	if req.OnStats == nil {
		return api.WatchStatsResponse{Err: api.Errf(api.VerbWatchStats, api.CodeBadRequest, "nil OnStats")}
	}
	resp, id := c.do(TWatchReq, WatchReq{Every: req.Every}, hooks{stats: &stream{onStats: req.OnStats}})
	if err := resp.(WatchResp).Err; err != nil {
		return api.WatchStatsResponse{Err: err}
	}
	return api.WatchStatsResponse{Stop: func() {
		if _, ok := c.pending[id]; ok {
			delete(c.pending, id)
			c.sendFrame(TWatchCancel, id, nil)
		}
	}}
}

var _ api.ControlPlane = (*Client)(nil)
