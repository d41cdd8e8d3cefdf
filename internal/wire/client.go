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
	tx, rx []byte
	rxoff  int // frames before it are consumed
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

// Abort kills the transport abruptly — no watch cancels, no FIN — the
// operator console that vanishes mid-stream. Server-side reclamation
// rides the connection-teardown path instead of TWatchCancel frames.
func (c *Client) Abort() {
	if c.conn != nil && !c.closed {
		c.conn.Abort()
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

func (a *clientConn) Data(b []byte) { (*Client)(a).onData(b) }

func (a *clientConn) Closed(err error) {
	a.closed = true
	if err != nil {
		a.closeErr = err
	}
}

// onData reassembles frames and routes them: responses park in resps
// for a pumping verb to collect, events fire their registered closures
// immediately. A closure may issue a verb, whose pumping re-enters
// onData: a frame is consumed before it is routed, and c.rx read afresh.
func (c *Client) onData(b []byte) {
	c.rx = append(c.rx, b...)
	for {
		_, typ, id, msg, n, err := c.dec.Decode(c.rx[c.rxoff:])
		if err == ErrShort {
			c.rx, c.rxoff = compact(c.rx, c.rxoff), 0
			return
		}
		if err != nil {
			c.closed = true
			c.closeErr = err
			c.conn.Abort()
			return
		}
		c.rxoff += n
		c.Frames++
		h := c.pending[id]
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
			if h.stats != nil && !h.stats(msg.(api.StatsResponse)) {
				delete(c.pending, id)
				c.sendFrame(TWatchCancel, id, nil)
			}
		default:
			c.resps[id] = msg
		}
	}
}

// hooks are the callbacks a request leaves behind for its events: at
// most one of them is set.
type hooks struct {
	ready func(error)                  // ReadyEvent
	done  func(bool)                   // DoneEvent
	stats func(api.StatsResponse) bool // StatsEvent, until it returns false
}

// do runs one verb: allocate the request id, file the callbacks its
// events will fire, send the request and pump until the response. A
// verb that fails — on the transport or at the server — drops its
// callbacks again, since no event will follow.
func (c *Client) do(typ byte, req any, h hooks) (resp any, id uint32) {
	v := &verbs[typ-TRegisterReq]
	id = c.id()
	if h.ready != nil || h.done != nil || h.stats != nil {
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
	if v.errOf(resp) != nil {
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

// Stats implements api.ControlPlane.
func (c *Client) Stats(req api.StatsRequest) api.StatsResponse {
	return call[api.StatsResponse](c, TStatsReq, req, hooks{})
}

// WatchStats implements api.ControlPlane: snapshots stream in as
// StatsEvent frames and fire OnStats; the returned Stop sends a cancel
// frame upstream.
func (c *Client) WatchStats(req api.WatchStatsRequest) api.WatchStatsResponse {
	if req.OnStats == nil {
		return api.WatchStatsResponse{Err: api.Errf(api.VerbWatchStats, api.CodeBadRequest, "nil OnStats")}
	}
	resp, id := c.do(TWatchReq, WatchReq{Every: req.Every}, hooks{stats: req.OnStats})
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
