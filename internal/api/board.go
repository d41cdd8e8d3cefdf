package api

import (
	"cmp"
	"errors"
	"slices"
	"strings"

	"jitsu/internal/core"
)

// boardPlane adapts one core.Board's directory to the ControlPlane
// interface. Every verb resolves its name against the board's Jitsu and
// drives the shared Activation machine through the existing typed
// methods — no new lifecycle paths.
type boardPlane struct {
	b *core.Board
}

// ForBoard exposes one board's directory as a ControlPlane.
func ForBoard(b *core.Board) ControlPlane { return &boardPlane{b: b} }

// service resolves name in the board's directory, or says why not in
// verb's terms.
func (p *boardPlane) service(verb, name string) (*core.Service, *Error) {
	svc, err := p.b.Jitsu.Service(name)
	return svc, codeOf(verb, name, err)
}

// codeOf maps a core lifecycle error to the code a caller branches on —
// the one place the two vocabularies meet. nil maps to nil.
func codeOf(verb, name string, err error) *Error {
	code := CodeConflict // the service's state precludes the operation
	switch {
	case err == nil:
		return nil
	case errors.Is(err, core.ErrNoSuchService):
		code = CodeNotFound
	case errors.Is(err, core.ErrNoMemory), errors.Is(err, core.ErrDiskFull):
		code = CodeNoMemory
	case errors.Is(err, core.ErrNoDisk):
		code = CodeUnavailable
	}
	return Errf(verb, code, "%s: %v", name, err)
}

// register files cfg unless its name is empty or taken.
func (p *boardPlane) register(verb string, cfg core.ServiceConfig) (*core.Service, *Error) {
	if cfg.Name == "" {
		return nil, Errf(verb, CodeBadRequest, "empty service name")
	}
	if _, err := p.b.Jitsu.Service(cfg.Name); err == nil {
		return nil, Errf(verb, CodeConflict, "%s already registered", cfg.Name)
	}
	return p.b.Jitsu.Register(cfg), nil
}

func (p *boardPlane) Register(req RegisterRequest) RegisterResponse {
	svc, err := p.register(VerbRegister, req.Config)
	if err != nil {
		return RegisterResponse{Err: err}
	}
	return RegisterResponse{Name: svc.Cfg.Name}
}

func (p *boardPlane) Activate(req ActivateRequest) ActivateResponse {
	svc, err := p.service(VerbActivate, req.Name)
	if err == nil {
		err = codeOf(VerbActivate, req.Name, p.b.Jitsu.Activate(svc, !req.Speculative, req.OnReady))
	}
	if err != nil {
		return ActivateResponse{Err: err}
	}
	return ActivateResponse{IP: svc.Cfg.IP, State: svc.State}
}

func (p *boardPlane) Checkpoint(req CheckpointRequest) CheckpointResponse {
	svc, err := p.service(VerbCheckpoint, req.Name)
	if err != nil {
		return CheckpointResponse{Err: err}
	}
	cp, ok := p.b.Jitsu.Checkpoint(svc)
	if !ok {
		return CheckpointResponse{Err: Errf(VerbCheckpoint, CodeConflict, "%s has no state to capture (state %v)", req.Name, svc.State)}
	}
	return CheckpointResponse{Checkpoint: cp}
}

func (p *boardPlane) Restore(req RestoreRequest) RestoreResponse {
	if req.Checkpoint == nil {
		return RestoreResponse{Err: Errf(VerbRestore, CodeBadRequest, "nil checkpoint")}
	}
	svc, err := p.service(VerbRestore, req.Name)
	if err != nil {
		return RestoreResponse{Err: err}
	}
	if !req.ToDisk {
		return RestoreResponse{Err: codeOf(VerbRestore, req.Name, p.b.Jitsu.Restore(svc, req.Checkpoint, req.OnReady))}
	}
	if err := codeOf(VerbRestore, req.Name, p.b.Jitsu.AdoptCheckpoint(svc, req.Checkpoint)); err != nil {
		return RestoreResponse{Err: err}
	}
	if req.OnReady != nil {
		req.OnReady(nil)
	}
	return RestoreResponse{}
}

func (p *boardPlane) Migrate(req MigrateRequest) MigrateResponse {
	return MigrateResponse{Err: Errf(VerbMigrate, CodeUnavailable, "single board: nowhere to move %s", req.Name)}
}

// Transfer adopts a service arriving from elsewhere: register it here
// and, if warm state rides along, restore it on this board.
func (p *boardPlane) Transfer(req TransferRequest) TransferResponse {
	svc, err := p.register(VerbTransfer, req.Config)
	if err != nil {
		return TransferResponse{Board: -1, Err: err}
	}
	if req.Checkpoint == nil {
		if req.OnReady != nil {
			req.OnReady(nil)
		}
		return TransferResponse{Board: -1}
	}
	if req.ToDisk {
		// Land the checkpoint on the disk tier without paging it in; a
		// diskless or full receiver falls through to the warm restore.
		if err := p.b.Jitsu.AdoptCheckpoint(svc, req.Checkpoint); err == nil {
			if req.OnReady != nil {
				req.OnReady(nil)
			}
			return TransferResponse{Board: 0}
		}
	}
	if err := p.b.Jitsu.Restore(svc, req.Checkpoint, req.OnReady); err != nil {
		p.b.Jitsu.Deregister(svc)
		return TransferResponse{Board: -1, Err: codeOf(VerbTransfer, req.Config.Name, err)}
	}
	return TransferResponse{Board: 0}
}

func (p *boardPlane) Demote(req DemoteRequest) DemoteResponse {
	svc, err := p.service(VerbDemote, req.Name)
	if err == nil {
		err = codeOf(VerbDemote, req.Name, p.b.Jitsu.Demote(svc))
	}
	if err != nil {
		return DemoteResponse{Err: err}
	}
	return DemoteResponse{Demoted: 1}
}

func (p *boardPlane) Promote(req PromoteRequest) PromoteResponse {
	svc, err := p.service(VerbPromote, req.Name)
	if err == nil {
		err = codeOf(VerbPromote, req.Name, p.b.Jitsu.Promote(svc, req.OnReady))
	}
	if err != nil {
		return PromoteResponse{Board: -1, Err: err}
	}
	return PromoteResponse{Board: 0}
}

func (p *boardPlane) Stop(req StopRequest) StopResponse {
	svc, err := p.service(VerbStop, req.Name)
	if err != nil {
		return StopResponse{Err: err}
	}
	if p.b.Jitsu.Evict(svc) {
		return StopResponse{Stopped: 1}
	}
	return StopResponse{}
}

// Stats writes the board's snapshot into req.Into, or a fresh buffer:
// the directory read in place, in name order.
func (p *boardPlane) Stats(req StatsRequest) StatsResponse {
	b := cmp.Or(req.Into, new(StatsBuf))
	svcs := p.b.Jitsu.Services()
	r := &b.Resp
	*r = StatsResponse{
		Services:   slices.Grow(r.Services[:0], len(svcs)),
		Triggers:   AddFired(slices.Grow(r.Triggers[:0], 8), p.b.Jitsu.Activation()),
		Registries: b.Rows.Freeze(r.Registries[:0], p.b.Reg),
	}
	for _, svc := range svcs {
		r.Services = append(r.Services, ServiceStats{Name: svc.Cfg.Name, State: svc.State, Counters: svc.Counters})
	}
	if len(svcs) == 0 {
		r.Services = nil // as a fresh buffer leaves it
	}
	return *r
}

func (p *boardPlane) WatchStats(req WatchStatsRequest) WatchStatsResponse {
	return StreamStats(p.b.Eng, req, p.Stats)
}

// AddFired adds one board's per-trigger firing counts into ts, which is
// and stays name-sorted — a cluster folds its boards into one slice.
func AddFired(ts []TriggerStats, a *core.Activation) []TriggerStats {
	for name, n := range a.Fired {
		i, ok := slices.BinarySearchFunc(ts, name, func(t TriggerStats, name string) int { return strings.Compare(t.Name, name) })
		if !ok {
			ts = slices.Insert(ts, i, TriggerStats{Name: name})
		}
		ts[i].Fired += n
	}
	return ts
}
