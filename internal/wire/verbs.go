package wire

import (
	"jitsu/internal/api"
)

// verb is one api.ControlPlane verb as the wire knows it, its message
// types erased. Everything that differs from verb to verb is a column
// here; Append, Decode, the server's dispatch and the client's call
// read the row and know no verb by name.
type verb struct {
	// name is the api.Verb* constant: the Op of the verb's errors and
	// the key api.RequiredScope gates it by.
	name string
	// req and resp are the bodies of the request frame (type T) and the
	// response frame (type T+0x20).
	req, resp codec
	// refuse is the verb's response carrying err and nothing else — how
	// a scope refusal and a transport failure reach the caller through
	// the verb it called; errOf reads the error of any response.
	refuse func(err *api.Error) any
	errOf  func(resp any) *api.Error
	// handle serves one request frame on a session: decode the body,
	// admit or refuse it, run it against the backend, answer. An error
	// is a malformed body.
	handle func(sc *srvConn, id uint32, body []byte) error
}

// body is the layout of one frame body, written once: it walks m's
// fields through x, which writes them or fills them (buf), and returns
// both. Everything is passed by value because a pointer handed to a
// function value moves what it points at to the heap, one allocation
// per frame.
type body[T any] func(x buf, m T) (buf, T)

// codec is a body with its message type erased: encoding, msg is
// asserted to the one Go type the frame carries; decoding, the message
// read comes back.
type codec func(x buf, msg any) (buf, any)

func erase[T any](f body[T]) codec {
	return func(x buf, msg any) (buf, any) {
		x, m := f(x, arg[T](&x, msg))
		if !x.dec {
			return x, nil // msg again, and boxing it would allocate
		}
		return x, m
	}
}

// row builds a verb's table row from its typed parts: the type of its
// response frame, the two bodies, the response that carries only an
// error, how to read a response's error, and the call on the backend. A
// server session runs the typed parts, so no message of its is ever
// held in an any.
func row[Req, Resp any](name string, respType byte, req body[Req], resp body[Resp],
	refuse func(*api.Error) Resp, errOf func(Resp) *api.Error,
	serve func(sc *srvConn, id uint32, req Req) Resp) verb {
	return verb{
		name:   name,
		req:    erase(req),
		resp:   erase(resp),
		refuse: func(err *api.Error) any { return refuse(err) },
		errOf:  func(resp any) *api.Error { return errOf(resp.(Resp)) },
		handle: func(sc *srvConn, id uint32, body []byte) error {
			x, m := req(buf{b: body, dec: true}, *new(Req))
			if err := x.done(); err != nil {
				return err
			}
			var out Resp
			if err := sc.admit(name); err != nil {
				out = refuse(err)
			} else {
				out = serve(sc, id, m)
			}
			x, _ = resp(sc.begin(respType, id), out)
			sc.flush(x)
			return nil
		},
	}
}

// verbs is indexed by request frame type, from TRegisterReq. It is
// filled in init because a row's serve reaches Append, which reads the
// table.
var verbs [TWatchReq - TRegisterReq + 1]verb

// codecOf finds the body of a verb's request or response frame; nil for
// the handshake, event and cancel frames.
func codecOf(typ byte) codec {
	switch {
	case typ >= TRegisterReq && typ <= TWatchReq:
		return verbs[typ-TRegisterReq].req
	case typ >= TRegisterResp && typ <= TWatchResp:
		return verbs[typ-TRegisterResp].resp
	}
	return nil
}

func init() {
	verbs = [...]verb{
		TRegisterReq - TRegisterReq: row(api.VerbRegister, TRegisterResp,
			func(x buf, m api.RegisterRequest) (buf, api.RegisterRequest) {
				x.config(&m.Config)
				x.int(&m.MinWarm)
				x.str(&m.Policy)
				return x, m
			},
			func(x buf, m api.RegisterResponse) (buf, api.RegisterResponse) {
				x.str(&m.Name)
				x.apiErr(&m.Err)
				return x, m
			},
			func(err *api.Error) api.RegisterResponse { return api.RegisterResponse{Err: err} },
			func(m api.RegisterResponse) *api.Error { return m.Err },
			func(sc *srvConn, _ uint32, m api.RegisterRequest) api.RegisterResponse {
				sc.s.resolve(&m.Config.Image)
				return sc.s.backend.Register(m)
			}),
		TActivateReq - TRegisterReq: row(api.VerbActivate, TActivateResp,
			func(x buf, m ActivateReq) (buf, ActivateReq) {
				x.str(&m.Name)
				x.bool(&m.Speculative)
				x.bool(&m.WantReady)
				return x, m
			},
			func(x buf, m api.ActivateResponse) (buf, api.ActivateResponse) {
				x.ip(&m.IP)
				x.int(&m.Board)
				enum(&x, &m.State)
				x.apiErr(&m.Err)
				return x, m
			},
			func(err *api.Error) api.ActivateResponse { return api.ActivateResponse{Err: err} },
			func(m api.ActivateResponse) *api.Error { return m.Err },
			func(sc *srvConn, id uint32, m ActivateReq) api.ActivateResponse {
				return sc.s.backend.Activate(api.ActivateRequest{Name: m.Name,
					Speculative: m.Speculative, OnReady: sc.readyEvent(id, m.WantReady)})
			}),
		TCheckpointReq - TRegisterReq: row(api.VerbCheckpoint, TCheckpointResp,
			func(x buf, m api.CheckpointRequest) (buf, api.CheckpointRequest) {
				x.str(&m.Name)
				x.int((*int)(&m.Board))
				return x, m
			},
			func(x buf, m api.CheckpointResponse) (buf, api.CheckpointResponse) {
				x.checkpoint(&m.Checkpoint)
				x.int(&m.Board)
				x.apiErr(&m.Err)
				return x, m
			},
			func(err *api.Error) api.CheckpointResponse { return api.CheckpointResponse{Err: err} },
			func(m api.CheckpointResponse) *api.Error { return m.Err },
			func(sc *srvConn, _ uint32, m api.CheckpointRequest) api.CheckpointResponse {
				return sc.s.backend.Checkpoint(m)
			}),
		TRestoreReq - TRegisterReq: row(api.VerbRestore, TRestoreResp,
			func(x buf, m RestoreReq) (buf, RestoreReq) {
				x.str(&m.Name)
				x.checkpoint(&m.Checkpoint)
				x.int((*int)(&m.Board))
				x.bool(&m.ToDisk)
				x.bool(&m.WantReady)
				return x, m
			},
			func(x buf, m api.RestoreResponse) (buf, api.RestoreResponse) {
				x.apiErr(&m.Err)
				return x, m
			},
			func(err *api.Error) api.RestoreResponse { return api.RestoreResponse{Err: err} },
			func(m api.RestoreResponse) *api.Error { return m.Err },
			func(sc *srvConn, id uint32, m RestoreReq) api.RestoreResponse {
				sc.s.resolveCp(m.Checkpoint)
				return sc.s.backend.Restore(api.RestoreRequest{Name: m.Name, Checkpoint: m.Checkpoint,
					Board: m.Board, ToDisk: m.ToDisk, OnReady: sc.readyEvent(id, m.WantReady)})
			}),
		TMigrateReq - TRegisterReq: row(api.VerbMigrate, TMigrateResp,
			func(x buf, m MigrateReq) (buf, MigrateReq) {
				x.str(&m.Name)
				x.int((*int)(&m.From))
				x.int((*int)(&m.To))
				x.bool(&m.WantDone)
				return x, m
			},
			func(x buf, m api.MigrateResponse) (buf, api.MigrateResponse) {
				x.bool(&m.Started)
				x.apiErr(&m.Err)
				return x, m
			},
			func(err *api.Error) api.MigrateResponse { return api.MigrateResponse{Err: err} },
			func(m api.MigrateResponse) *api.Error { return m.Err },
			func(sc *srvConn, id uint32, m MigrateReq) api.MigrateResponse {
				req := api.MigrateRequest{Name: m.Name, From: m.From, To: m.To}
				if m.WantDone {
					req.OnDone = func(ok bool) { sc.send(TDoneEvent, id, DoneEvent{OK: ok}) }
				}
				return sc.s.backend.Migrate(req)
			}),
		TTransferReq - TRegisterReq: row(api.VerbTransfer, TTransferResp,
			func(x buf, m TransferReq) (buf, TransferReq) {
				x.config(&m.Config)
				x.int(&m.MinWarm)
				x.str(&m.Policy)
				x.checkpoint(&m.Checkpoint)
				x.bool(&m.ToDisk)
				x.bool(&m.WantReady)
				return x, m
			},
			func(x buf, m api.TransferResponse) (buf, api.TransferResponse) {
				x.int(&m.Board)
				x.apiErr(&m.Err)
				return x, m
			},
			func(err *api.Error) api.TransferResponse { return api.TransferResponse{Err: err} },
			func(m api.TransferResponse) *api.Error { return m.Err },
			func(sc *srvConn, id uint32, m TransferReq) api.TransferResponse {
				sc.s.resolve(&m.Config.Image)
				sc.s.resolveCp(m.Checkpoint)
				return sc.s.backend.Transfer(api.TransferRequest{Config: m.Config, MinWarm: m.MinWarm,
					Policy: m.Policy, Checkpoint: m.Checkpoint, ToDisk: m.ToDisk, OnReady: sc.readyEvent(id, m.WantReady)})
			}),
		TDemoteReq - TRegisterReq: row(api.VerbDemote, TDemoteResp,
			func(x buf, m api.DemoteRequest) (buf, api.DemoteRequest) {
				x.str(&m.Name)
				x.int((*int)(&m.Board))
				return x, m
			},
			func(x buf, m api.DemoteResponse) (buf, api.DemoteResponse) {
				x.int(&m.Demoted)
				x.apiErr(&m.Err)
				return x, m
			},
			func(err *api.Error) api.DemoteResponse { return api.DemoteResponse{Err: err} },
			func(m api.DemoteResponse) *api.Error { return m.Err },
			func(sc *srvConn, _ uint32, m api.DemoteRequest) api.DemoteResponse {
				return sc.s.backend.Demote(m)
			}),
		TPromoteReq - TRegisterReq: row(api.VerbPromote, TPromoteResp,
			func(x buf, m PromoteReq) (buf, PromoteReq) {
				x.str(&m.Name)
				x.int((*int)(&m.Board))
				x.bool(&m.WantReady)
				return x, m
			},
			func(x buf, m api.PromoteResponse) (buf, api.PromoteResponse) {
				x.int(&m.Board)
				x.apiErr(&m.Err)
				return x, m
			},
			func(err *api.Error) api.PromoteResponse { return api.PromoteResponse{Err: err} },
			func(m api.PromoteResponse) *api.Error { return m.Err },
			func(sc *srvConn, id uint32, m PromoteReq) api.PromoteResponse {
				return sc.s.backend.Promote(api.PromoteRequest{Name: m.Name, Board: m.Board,
					OnReady: sc.readyEvent(id, m.WantReady)})
			}),
		TStopReq - TRegisterReq: row(api.VerbStop, TStopResp,
			func(x buf, m api.StopRequest) (buf, api.StopRequest) {
				x.str(&m.Name)
				return x, m
			},
			func(x buf, m api.StopResponse) (buf, api.StopResponse) {
				x.int(&m.Stopped)
				x.apiErr(&m.Err)
				return x, m
			},
			func(err *api.Error) api.StopResponse { return api.StopResponse{Err: err} },
			func(m api.StopResponse) *api.Error { return m.Err },
			func(sc *srvConn, _ uint32, m api.StopRequest) api.StopResponse {
				return sc.s.backend.Stop(m)
			}),
		TStatsReq - TRegisterReq: row(api.VerbStats, TStatsResp,
			func(x buf, m api.StatsRequest) (buf, api.StatsRequest) { return x, m }, // no body
			func(x buf, m api.StatsResponse) (buf, api.StatsResponse) {
				x.stats(&m)
				return x, m
			},
			func(err *api.Error) api.StatsResponse { return api.StatsResponse{Err: err} },
			func(m api.StatsResponse) *api.Error { return m.Err },
			func(sc *srvConn, _ uint32, _ api.StatsRequest) api.StatsResponse {
				return sc.s.backend.Stats(api.StatsRequest{Into: &sc.stats})
			}),
		TWatchReq - TRegisterReq: row(api.VerbWatchStats, TWatchResp,
			func(x buf, m WatchReq) (buf, WatchReq) {
				x.dur(&m.Every)
				return x, m
			},
			func(x buf, m WatchResp) (buf, WatchResp) {
				x.apiErr(&m.Err)
				return x, m
			},
			func(err *api.Error) WatchResp { return WatchResp{Err: err} },
			func(m WatchResp) *api.Error { return m.Err },
			(*srvConn).watch),
	}
}
