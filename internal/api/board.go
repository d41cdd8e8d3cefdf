package api

import (
	"errors"
	"slices"
	"strings"

	"jitsu/internal/core"
	"jitsu/internal/obs"
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

func (p *boardPlane) Register(req RegisterRequest) RegisterResponse {
	if req.Config.Name == "" {
		return RegisterResponse{Err: Errf(VerbRegister, CodeBadRequest, "empty service name")}
	}
	if _, err := p.b.Jitsu.Service(req.Config.Name); err == nil {
		return RegisterResponse{Err: Errf(VerbRegister, CodeConflict, "%s already registered", req.Config.Name)}
	}
	svc := p.b.Jitsu.Register(req.Config)
	return RegisterResponse{Name: svc.Cfg.Name}
}

func (p *boardPlane) Activate(req ActivateRequest) ActivateResponse {
	svc, err := p.b.Jitsu.Service(req.Name)
	if err != nil {
		return ActivateResponse{Err: Errf(VerbActivate, CodeNotFound, "%s", req.Name)}
	}
	if err := p.b.Jitsu.Activate(svc, !req.Speculative, req.OnReady); err != nil {
		return ActivateResponse{Err: activateError(err, req.Name)}
	}
	return ActivateResponse{IP: svc.Cfg.IP, State: svc.State}
}

func activateError(err error, name string) *Error {
	switch {
	case errors.Is(err, core.ErrNoMemory):
		return Errf(VerbActivate, CodeNoMemory, "%s: image does not fit", name)
	case errors.Is(err, core.ErrNoSuchService):
		return Errf(VerbActivate, CodeNotFound, "%s", name)
	default:
		return Errf(VerbActivate, CodeConflict, "%s: %v", name, err)
	}
}

func (p *boardPlane) Checkpoint(req CheckpointRequest) CheckpointResponse {
	svc, err := p.b.Jitsu.Service(req.Name)
	if err != nil {
		return CheckpointResponse{Err: Errf(VerbCheckpoint, CodeNotFound, "%s", req.Name)}
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
	svc, err := p.b.Jitsu.Service(req.Name)
	if err != nil {
		return RestoreResponse{Err: Errf(VerbRestore, CodeNotFound, "%s", req.Name)}
	}
	if req.ToDisk {
		switch err := p.b.Jitsu.AdoptCheckpoint(svc, req.Checkpoint); {
		case err == nil:
			if req.OnReady != nil {
				req.OnReady(nil)
			}
			return RestoreResponse{}
		case errors.Is(err, core.ErrNoDisk):
			return RestoreResponse{Err: Errf(VerbRestore, CodeUnavailable, "%s: board has no disk", req.Name)}
		case errors.Is(err, core.ErrDiskFull):
			return RestoreResponse{Err: Errf(VerbRestore, CodeNoMemory, "%s: checkpoint store full", req.Name)}
		case errors.Is(err, core.ErrNoSuchService):
			return RestoreResponse{Err: Errf(VerbRestore, CodeNotFound, "%s retired", req.Name)}
		default:
			return RestoreResponse{Err: Errf(VerbRestore, CodeConflict, "%s: %v", req.Name, err)}
		}
	}
	switch err := p.b.Jitsu.Restore(svc, req.Checkpoint, req.OnReady); {
	case err == nil:
		return RestoreResponse{}
	case errors.Is(err, core.ErrNoMemory):
		return RestoreResponse{Err: Errf(VerbRestore, CodeNoMemory, "%s: checkpoint does not fit", req.Name)}
	case errors.Is(err, core.ErrNoSuchService):
		return RestoreResponse{Err: Errf(VerbRestore, CodeNotFound, "%s retired", req.Name)}
	default:
		return RestoreResponse{Err: Errf(VerbRestore, CodeConflict, "%s: %v", req.Name, err)}
	}
}

func (p *boardPlane) Migrate(req MigrateRequest) MigrateResponse {
	return MigrateResponse{Err: Errf(VerbMigrate, CodeUnavailable, "single board: nowhere to move %s", req.Name)}
}

// Transfer adopts a service arriving from elsewhere: register it here
// and, if warm state rides along, restore it on this board.
func (p *boardPlane) Transfer(req TransferRequest) TransferResponse {
	if req.Config.Name == "" {
		return TransferResponse{Board: -1, Err: Errf(VerbTransfer, CodeBadRequest, "empty service name")}
	}
	if _, err := p.b.Jitsu.Service(req.Config.Name); err == nil {
		return TransferResponse{Board: -1, Err: Errf(VerbTransfer, CodeConflict, "%s already registered", req.Config.Name)}
	}
	svc := p.b.Jitsu.Register(req.Config)
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
		if errors.Is(err, core.ErrNoMemory) {
			return TransferResponse{Board: -1, Err: Errf(VerbTransfer, CodeNoMemory, "%s: checkpoint does not fit", req.Config.Name)}
		}
		return TransferResponse{Board: -1, Err: Errf(VerbTransfer, CodeConflict, "%s: %v", req.Config.Name, err)}
	}
	return TransferResponse{Board: 0}
}

func (p *boardPlane) Demote(req DemoteRequest) DemoteResponse {
	svc, err := p.b.Jitsu.Service(req.Name)
	if err != nil {
		return DemoteResponse{Err: Errf(VerbDemote, CodeNotFound, "%s", req.Name)}
	}
	switch err := p.b.Jitsu.Demote(svc); {
	case err == nil:
		return DemoteResponse{Demoted: 1}
	case errors.Is(err, core.ErrNoDisk):
		return DemoteResponse{Err: Errf(VerbDemote, CodeUnavailable, "%s: board has no disk", req.Name)}
	case errors.Is(err, core.ErrDiskFull):
		return DemoteResponse{Err: Errf(VerbDemote, CodeNoMemory, "%s: checkpoint store full", req.Name)}
	case errors.Is(err, core.ErrNoSuchService):
		return DemoteResponse{Err: Errf(VerbDemote, CodeNotFound, "%s retired", req.Name)}
	default:
		return DemoteResponse{Err: Errf(VerbDemote, CodeConflict, "%s: %v", req.Name, err)}
	}
}

func (p *boardPlane) Promote(req PromoteRequest) PromoteResponse {
	svc, err := p.b.Jitsu.Service(req.Name)
	if err != nil {
		return PromoteResponse{Board: -1, Err: Errf(VerbPromote, CodeNotFound, "%s", req.Name)}
	}
	switch err := p.b.Jitsu.Promote(svc, req.OnReady); {
	case err == nil:
		return PromoteResponse{Board: 0}
	case errors.Is(err, core.ErrNoMemory):
		return PromoteResponse{Board: -1, Err: Errf(VerbPromote, CodeNoMemory, "%s: image does not fit", req.Name)}
	case errors.Is(err, core.ErrNoSuchService):
		return PromoteResponse{Board: -1, Err: Errf(VerbPromote, CodeNotFound, "%s retired", req.Name)}
	default:
		return PromoteResponse{Board: -1, Err: Errf(VerbPromote, CodeConflict, "%s: %v", req.Name, err)}
	}
}

func (p *boardPlane) Stop(req StopRequest) StopResponse {
	svc, err := p.b.Jitsu.Service(req.Name)
	if err != nil {
		return StopResponse{Err: Errf(VerbStop, CodeNotFound, "%s", req.Name)}
	}
	if p.b.Jitsu.Evict(svc) {
		return StopResponse{Stopped: 1}
	}
	return StopResponse{}
}

func (p *boardPlane) Stats(StatsRequest) StatsResponse {
	svcs := p.b.Jitsu.Services()
	resp := StatsResponse{Services: make([]ServiceStats, 0, len(svcs))}
	for _, svc := range svcs {
		resp.Services = append(resp.Services, ServiceStats{
			Name: svc.Cfg.Name, State: svc.State,
			Launches: svc.Launches, ColdStarts: svc.ColdStarts,
			Handoffs: svc.Handoffs, ServFails: svc.ServFails,
			Reaps: svc.Reaps, Restores: svc.Restores,
			DiskRestores: svc.DiskRestores, Demotions: svc.Demotions,
		})
	}
	resp.Triggers = AddFired(make([]TriggerStats, 0, 8), p.b.Jitsu.Activation())
	resp.Registries = []obs.Snapshot{p.b.Reg.Snapshot()}
	return resp
}

func (p *boardPlane) WatchStats(req WatchStatsRequest) WatchStatsResponse {
	return StreamStats(p.b.Eng, req, p.Stats)
}

// AddFired adds one board's per-trigger firing counts into ts, which is
// and stays name-sorted — a cluster folds its boards into one slice.
func AddFired(ts []TriggerStats, a *core.Activation) []TriggerStats {
	for name, n := range a.Fired() {
		i, ok := slices.BinarySearchFunc(ts, name, func(t TriggerStats, name string) int { return strings.Compare(t.Name, name) })
		if !ok {
			ts = slices.Insert(ts, i, TriggerStats{Name: name})
		}
		ts[i].Fired += n
	}
	return ts
}
