package cluster

import (
	"cmp"
	"slices"

	"jitsu/internal/api"
	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/obs"
)

// clusterPlane adapts the whole cluster to api.ControlPlane: the same
// verbs a single board answers, but Register fans out replica slots,
// Activate routes through the placement scheduler, and Migrate actually
// moves state. cmd/jitsud and tests speak this surface instead of
// reaching into Cluster internals.
type clusterPlane struct {
	c *Cluster
}

// API exposes the cluster's control plane as the typed api surface.
func (c *Cluster) API() api.ControlPlane { return &clusterPlane{c: c} }

// boardAPI is the per-board control plane the cluster's own management
// paths (migration) speak.
func (c *Cluster) boardAPI(id int) api.ControlPlane { return c.apis[id] }

// entry resolves name in the cluster directory, or says why not in
// verb's terms.
func (p *clusterPlane) entry(verb, name string) (*Entry, *api.Error) {
	if e := p.c.dir.Lookup(name); e != nil {
		return e, nil
	}
	return nil, api.Errf(verb, api.CodeNotFound, "%s", name)
}

// serviceOptions validates the registration a Register or Transfer
// carries — a name, and a known policy if one is named — and turns its
// policy and warm floor into options. It runs before either verb's
// first side effect.
func serviceOptions(verb, name, policy string, minWarm int) ([]ServiceOption, *api.Error) {
	if name == "" {
		return nil, api.Errf(verb, api.CodeBadRequest, "empty service name")
	}
	var opts []ServiceOption
	if policy != "" {
		pol := PolicyByName(policy)
		if pol == nil {
			return nil, api.Errf(verb, api.CodeBadRequest, "unknown policy %q", policy)
		}
		opts = append(opts, WithServicePolicy(pol))
	}
	if minWarm > 0 {
		opts = append(opts, WithMinWarm(minWarm))
	}
	return opts, nil
}

func (p *clusterPlane) Register(req api.RegisterRequest) api.RegisterResponse {
	opts, err := serviceOptions(api.VerbRegister, req.Config.Name, req.Policy, req.MinWarm)
	if err != nil {
		return api.RegisterResponse{Err: err}
	}
	if p.c.dir.Lookup(req.Config.Name) != nil {
		return api.RegisterResponse{Err: api.Errf(api.VerbRegister, api.CodeConflict, "%s already registered", req.Config.Name)}
	}
	e := p.c.RegisterService(req.Config, opts...)
	return api.RegisterResponse{Name: e.Name}
}

func (p *clusterPlane) Activate(req api.ActivateRequest) api.ActivateResponse {
	e, err := p.entry(api.VerbActivate, req.Name)
	if err != nil || e.moved {
		if cid, ok := p.c.movedTo[dns.CanonicalName(req.Name)]; ok {
			return api.ActivateResponse{Err: api.Errf(api.VerbActivate, api.CodeMoved, "%s moved to cluster %d", req.Name, cid)}
		}
		return api.ActivateResponse{Err: api.Errf(api.VerbActivate, api.CodeNotFound, "%s", req.Name)}
	}
	if req.Speculative {
		// A prewarm: boot a stopped replica where the policy likes,
		// without client-driven accounting.
		idx := p.c.prewarmPick(e)
		if idx < 0 {
			if pl := e.readyAt(0); pl != nil {
				// Nothing to prewarm because the service is already
				// warm: that is success, not resource exhaustion.
				if req.OnReady != nil {
					req.OnReady(nil)
				}
				return api.ActivateResponse{IP: pl.Svc.Cfg.IP, Board: pl.Board, State: pl.Svc.State}
			}
			return api.ActivateResponse{Err: api.Errf(api.VerbActivate, api.CodeNoMemory, "%s: no board can prewarm", req.Name)}
		}
		pl := e.Replicas[idx]
		if !p.c.Boards[idx].Jitsu.Summon(pl.Svc,
			core.Summon{Via: core.TriggerControl, OnReady: req.OnReady}).Served() {
			return api.ActivateResponse{Err: api.Errf(api.VerbActivate, api.CodeNoMemory, "%s: prewarm refused", req.Name)}
		}
		return api.ActivateResponse{IP: pl.Svc.Cfg.IP, Board: idx, State: pl.Svc.State}
	}
	// Client-driven: exactly the scheduler path a DNS arrival takes,
	// minus the wire — the arrival feeds the rate estimator and the
	// chosen replica is pinned against the next pool reconcile.
	pl, _ := p.c.schedule(e, TriggerCluster, req.OnReady)
	if pl == nil {
		return api.ActivateResponse{Err: api.Errf(api.VerbActivate, api.CodeNoMemory, "%s: no board can take it", req.Name)}
	}
	return api.ActivateResponse{IP: pl.Svc.Cfg.IP, Board: pl.Board, State: pl.Svc.State}
}

func (p *clusterPlane) Checkpoint(req api.CheckpointRequest) api.CheckpointResponse {
	e, err := p.entry(api.VerbCheckpoint, req.Name)
	if err != nil {
		return api.CheckpointResponse{Err: err}
	}
	// A booted replica captures live state; failing that, a disk-resident
	// one hands back its stored checkpoint without paging in.
	pl := replicaIn(e, req.Board, (*Placement).ready)
	if pl == nil {
		pl = replicaIn(e, req.Board, (*Placement).onDisk)
	}
	if pl == nil {
		return api.CheckpointResponse{Err: api.Errf(api.VerbCheckpoint, api.CodeConflict, "%s has no replica with state", req.Name)}
	}
	resp := p.c.boardAPI(pl.Board).Checkpoint(api.CheckpointRequest{Name: req.Name})
	resp.Board = pl.Board
	return resp
}

func (p *clusterPlane) Restore(req api.RestoreRequest) api.RestoreResponse {
	board, ok := req.Board.ID()
	if !ok {
		return api.RestoreResponse{Err: api.Errf(api.VerbRestore, api.CodeBadRequest, "restore needs a target board (api.OnBoard)")}
	}
	if board < 0 || board >= len(p.c.members) {
		return api.RestoreResponse{Err: api.Errf(api.VerbRestore, api.CodeBadRequest, "board %d out of range", board)}
	}
	if !p.c.members[board].Placeable() {
		return api.RestoreResponse{Err: api.Errf(api.VerbRestore, api.CodeUnavailable, "board %d not placeable", board)}
	}
	return p.c.boardAPI(board).Restore(req)
}

func (p *clusterPlane) Migrate(req api.MigrateRequest) api.MigrateResponse {
	e, err := p.entry(api.VerbMigrate, req.Name)
	if err != nil {
		return api.MigrateResponse{Err: err}
	}
	src := replicaIn(e, req.From, (*Placement).ready)
	if !src.in(slotOpen) {
		return api.MigrateResponse{Err: api.Errf(api.VerbMigrate, api.CodeConflict, "%s has no movable replica", req.Name)}
	}
	done := req.OnDone
	if done == nil {
		done = func(bool) {}
	}
	to, pinned := req.To.ID()
	if !pinned {
		to = p.c.pickDest(e, src)
		if to < 0 {
			return api.MigrateResponse{Err: api.Errf(api.VerbMigrate, api.CodeNoMemory, "%s: no destination fits", req.Name)}
		}
	} else {
		if to < 0 || to >= len(p.c.members) || !p.c.members[to].Placeable() {
			return api.MigrateResponse{Err: api.Errf(api.VerbMigrate, api.CodeBadRequest, "destination board %d unusable", to)}
		}
		dst := replicaOn(e, to)
		if !dst.in(slotOpen) || dst.Svc.State != core.StateCold {
			return api.MigrateResponse{Err: api.Errf(api.VerbMigrate, api.CodeConflict, "destination slot on board %d busy", to)}
		}
	}
	(&move{c: p.c, e: e, src: src, done: done}).attempt(to)
	return api.MigrateResponse{Started: true}
}

// Transfer is the receiving half of the federation transfer leg: adopt
// a service from another cluster, and when warm state rides along,
// restore it onto the board the service's policy picks. A failed warm
// restore rolls the registration back, so a botched transfer never
// leaves a second (cold) home competing with the still-serving source.
func (p *clusterPlane) Transfer(req api.TransferRequest) api.TransferResponse {
	opts, err := serviceOptions(api.VerbTransfer, req.Config.Name, req.Policy, req.MinWarm)
	if err != nil {
		return api.TransferResponse{Board: -1, Err: err}
	}
	if e := p.c.dir.Lookup(req.Config.Name); e != nil {
		if !e.moved {
			return api.TransferResponse{Board: -1, Err: api.Errf(api.VerbTransfer, api.CodeConflict, "%s already registered", req.Config.Name)}
		}
		// The service was shed away from here and its old replica is
		// still draining; a transfer back re-adopts it — cut the drain
		// short so the fresh registration owns the name.
		p.c.Unregister(e.Name)
	}
	e := p.c.RegisterService(req.Config, opts...)
	if req.Checkpoint == nil {
		if req.OnReady != nil {
			req.OnReady(nil)
		}
		return api.TransferResponse{Board: -1}
	}
	idx := e.Policy.Pick(p.c.views(e, nil))
	if idx < 0 {
		p.c.Unregister(e.Name)
		return api.TransferResponse{Board: -1, Err: api.Errf(api.VerbTransfer, api.CodeNoMemory, "%s: no board can restore it", req.Config.Name)}
	}
	// A board that can't park it on disk (diskless, or its store is
	// full) adopts it warm instead of bouncing the transfer.
	if err := p.c.land(e, idx, req.Checkpoint, req.ToDisk, req.OnReady); err != nil {
		p.c.Unregister(e.Name)
		return api.TransferResponse{Board: -1, Err: err}
	}
	return api.TransferResponse{Board: idx}
}

func (p *clusterPlane) Stop(req api.StopRequest) api.StopResponse {
	e, err := p.entry(api.VerbStop, req.Name)
	if err != nil {
		return api.StopResponse{Err: err}
	}
	stopped := 0
	// Booted replicas first, then the parked ones (an eviction leaves a
	// replica Stopped, so the second pass never meets the first's work).
	for _, tier := range []func(*Placement) bool{(*Placement).ready, (*Placement).onDisk} {
		for _, pl := range e.Replicas {
			if tier(pl) && p.c.Boards[pl.Board].Jitsu.Evict(pl.Svc) {
				stopped++
			}
		}
	}
	return api.StopResponse{Stopped: stopped}
}

// Demote parks booted replicas of a service on their boards' disk tier:
// every booted replica under AnyBoard, just one under a board selector.
func (p *clusterPlane) Demote(req api.DemoteRequest) api.DemoteResponse {
	e, err := p.entry(api.VerbDemote, req.Name)
	if err != nil {
		return api.DemoteResponse{Err: err}
	}
	if board, ok := req.Board.ID(); ok {
		if pl := replicaIn(e, req.Board, (*Placement).ready); !pl.in(slotOpen) {
			return api.DemoteResponse{Err: api.Errf(api.VerbDemote, api.CodeConflict, "%s has no booted replica on board %d", req.Name, board)}
		}
		return p.c.boardAPI(board).Demote(api.DemoteRequest{Name: req.Name})
	}
	demoted := 0
	var firstErr *api.Error
	for _, pl := range e.Replicas {
		if !pl.in(slotOpen) || !pl.Svc.State.Booted() {
			continue
		}
		resp := p.c.boardAPI(pl.Board).Demote(api.DemoteRequest{Name: req.Name})
		if resp.Err == nil {
			demoted += resp.Demoted
		} else if firstErr == nil {
			firstErr = resp.Err
		}
	}
	if demoted == 0 {
		if firstErr != nil {
			return api.DemoteResponse{Err: firstErr}
		}
		return api.DemoteResponse{Err: api.Errf(api.VerbDemote, api.CodeConflict, "%s has no booted replica", req.Name)}
	}
	return api.DemoteResponse{Demoted: demoted}
}

// Promote pages a disk-resident replica back into memory (warm, not
// running — the next client activation flips it). AnyBoard takes the
// first disk-resident replica in board order.
func (p *clusterPlane) Promote(req api.PromoteRequest) api.PromoteResponse {
	e, err := p.entry(api.VerbPromote, req.Name)
	if err != nil {
		return api.PromoteResponse{Board: -1, Err: err}
	}
	pl := replicaIn(e, req.Board, (*Placement).onDisk)
	if pl == nil {
		return api.PromoteResponse{Board: -1, Err: api.Errf(api.VerbPromote, api.CodeConflict, "%s has no disk-resident replica", req.Name)}
	}
	resp := p.c.boardAPI(pl.Board).Promote(api.PromoteRequest{Name: req.Name, OnReady: req.OnReady})
	if resp.Err != nil {
		return resp
	}
	resp.Board = pl.Board
	return resp
}

// Stats writes the cluster's snapshot into req.Into, or a fresh buffer:
// one row per service summed over its replicas, the boards' triggers
// merged, then the cluster-tier registry and one per board in board
// order — a cluster of up to 15 boards lists them on the stack.
func (p *clusterPlane) Stats(req api.StatsRequest) api.StatsResponse {
	b := cmp.Or(req.Into, new(api.StatsBuf))
	regs := append(make([]*obs.Registry, 0, 16), p.c.Reg)
	r := &b.Resp
	*r = api.StatsResponse{
		Services:   slices.Grow(r.Services[:0], len(p.c.dir.ordered)),
		Triggers:   slices.Grow(r.Triggers[:0], 8),
		Registries: r.Registries[:0],
	}
	for _, e := range p.c.dir.ordered {
		r.Services = append(r.Services, e.totals().ServiceStats)
	}
	for _, m := range p.c.members {
		r.Triggers = api.AddFired(r.Triggers, m.Board.Jitsu.Activation())
		regs = append(regs, m.Board.Reg)
	}
	r.Registries = b.Rows.Freeze(r.Registries, regs...)
	if len(r.Services) == 0 {
		r.Services = nil // as a fresh buffer leaves it
	}
	return *r
}

func (p *clusterPlane) WatchStats(req api.WatchStatsRequest) api.WatchStatsResponse {
	return api.StreamStats(p.c.eng, req, p.Stats)
}

// replicaIn picks e's replica in the given tier on the selected board,
// or the first in board order when any board will do.
func replicaIn(e *Entry, sel api.BoardSel, tier func(*Placement) bool) *Placement {
	board, pinned := sel.ID()
	for _, pl := range e.Replicas {
		if tier(pl) && (!pinned || pl.Board == board) {
			return pl
		}
	}
	return nil
}
