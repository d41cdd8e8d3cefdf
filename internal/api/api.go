// Package api is the typed control-plane surface over the Jitsu
// directory: Register / Activate / Checkpoint / Restore / Migrate /
// Demote / Promote / Stop / Stats requests with structured error codes.
// cmd/jitsud and the
// cluster's management paths speak these types instead of ad-hoc method
// calls, so a single-board deployment and a whole cluster present the
// same verbs — a cluster is just a ControlPlane whose Migrate does
// something.
//
// The package sits above internal/core and below internal/cluster:
// ForBoard adapts one board; Cluster.API (in internal/cluster) adapts
// the control plane of a whole cluster to the same interface.
//
// The vocabulary is written once: the verbs and the scope each needs
// are one table (scope.go) that Verbs and RequiredScope read, the codes
// one table that Codes and Code.String read, a service's lifecycle
// counters one struct (core.Counters) that a Stats row embeds, and the
// mapping from core's errors to codes one function (codeOf, board.go).
package api

import (
	"fmt"
	"time"

	"jitsu/internal/core"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// Code classifies a control-plane failure.
type Code int

// Error codes.
const (
	// CodeBadRequest: the request itself is malformed (empty name,
	// missing checkpoint, board index out of range).
	CodeBadRequest Code = iota + 1
	// CodeNotFound: no such service (or no replica where asked).
	CodeNotFound
	// CodeNoMemory: the image does not fit — the §3.3.2 resource
	// exhaustion a DNS client would see as SERVFAIL.
	CodeNoMemory
	// CodeConflict: the service's state precludes the operation
	// (checkpoint of a cold service, restore onto a running one,
	// registering a name twice).
	CodeConflict
	// CodeUnavailable: the deployment cannot perform the operation at
	// all (migration on a single board, departed board).
	CodeUnavailable
	// CodeMoved: the service was handed to another cluster (federation
	// spill or skew shed); the detail names the new home and callers
	// should re-resolve at the federation root.
	CodeMoved
	// CodeUnauthorized: the session's capability scope does not cover
	// the verb (or the session presented no acceptable credential at
	// all). The session itself stays healthy — only the verb is
	// refused.
	CodeUnauthorized
)

// codeNames is the code table, in wire order: Codes and String read it.
var codeNames = [...]string{
	CodeBadRequest:   "bad-request",
	CodeNotFound:     "not-found",
	CodeNoMemory:     "no-memory",
	CodeConflict:     "conflict",
	CodeUnavailable:  "unavailable",
	CodeMoved:        "moved",
	CodeUnauthorized: "unauthorized",
}

func (c Code) String() string {
	if c > 0 && int(c) < len(codeNames) {
		return codeNames[c]
	}
	return fmt.Sprintf("code(%d)", int(c))
}

// Codes lists every error code, in wire order — the table the
// verb-by-code round-trip tests sweep.
func Codes() []Code {
	out := make([]Code, 0, len(codeNames)-1)
	for c := CodeBadRequest; int(c) < len(codeNames); c++ {
		out = append(out, c)
	}
	return out
}

// Error is a typed control-plane failure: the operation, the code a
// caller can branch on, and a human-readable detail.
type Error struct {
	Op     string
	Code   Code
	Detail string
}

func (e *Error) Error() string {
	return fmt.Sprintf("api: %s: %s (%s)", e.Op, e.Detail, e.Code)
}

// Errf builds an Error.
func Errf(op string, code Code, format string, args ...any) *Error {
	return &Error{Op: op, Code: code, Detail: fmt.Sprintf(format, args...)}
}

// BoardSel selects a board in control-plane requests. The zero value is
// AnyBoard — "any suitable board" — so zero-constructed requests do the
// flexible thing; pin a specific board with OnBoard(id).
type BoardSel int

// AnyBoard is the zero BoardSel: any suitable board.
const AnyBoard BoardSel = 0

// OnBoard pins the selection to board id.
func OnBoard(id int) BoardSel { return BoardSel(id + 1) }

// ID unpacks the selection: ok is false for AnyBoard.
func (s BoardSel) ID() (id int, ok bool) {
	if s == AnyBoard {
		return -1, false
	}
	return int(s) - 1, true
}

// RegisterRequest adds a service to the directory. MinWarm and Policy
// are honoured by cluster backends; a single board ignores them.
type RegisterRequest struct {
	Config core.ServiceConfig
	// MinWarm keeps at least this many replicas booted (cluster only).
	MinWarm int
	// Policy names a placement policy ("first-fit", "round-robin",
	// "least-loaded", "power-aware"); empty = the backend default.
	Policy string
}

// RegisterResponse reports the canonical name registered.
type RegisterResponse struct {
	Name string
	Err  *Error
}

// ActivateRequest summons a service: launch it if stopped, touch it if
// running. The backend picks where (a cluster routes through its
// placement policy).
type ActivateRequest struct {
	Name string
	// Speculative suppresses cold-start accounting (a prewarm).
	Speculative bool
	// OnReady (may be nil) fires when the unikernel serves or the
	// launch fails.
	OnReady func(error)
}

// ActivateResponse reports where the service is (being) served.
type ActivateResponse struct {
	IP    netstack.IP
	Board int
	State core.ServiceState
	Err   *Error
}

// CheckpointRequest captures a ready service's state for migration.
type CheckpointRequest struct {
	Name string
	// Board restricts the capture to one board's replica (AnyBoard =
	// any ready replica; ignored by single-board backends).
	Board BoardSel
}

// CheckpointResponse carries the captured state and where it came from.
type CheckpointResponse struct {
	Checkpoint *core.Checkpoint
	Board      int
	Err        *Error
}

// RestoreRequest rebuilds a service from a checkpoint (the receiving
// half of a migration).
type RestoreRequest struct {
	Name       string
	Checkpoint *core.Checkpoint
	// Board selects the restore target with OnBoard(id); a cluster
	// refuses AnyBoard (the receiving half of a migration must name its
	// destination), a single board ignores the field.
	Board BoardSel
	// ToDisk parks the checkpoint on the target board's block device
	// (cold-on-disk) instead of booting it — the handoff path that moves
	// a demoted replica without paging it in. Requires the target to
	// have a disk.
	ToDisk  bool
	OnReady func(error)
}

// RestoreResponse reports acceptance; readiness arrives via OnReady.
type RestoreResponse struct {
	Err *Error
}

// MigrateRequest moves a ready replica between boards. Only meaningful
// on a cluster; single-board backends answer CodeUnavailable.
type MigrateRequest struct {
	Name string
	// From restricts the source (AnyBoard = any ready replica).
	From BoardSel
	// To selects the destination (AnyBoard = let the service's policy
	// pick).
	To BoardSel
	// OnDone (may be nil) fires when the migration settles; ok reports
	// whether the replica arrived warm.
	OnDone func(ok bool)
}

// MigrateResponse reports that the move started (completion is OnDone).
type MigrateResponse struct {
	Started bool
	Err     *Error
}

// TransferRequest adopts a service arriving from another deployment —
// the federation transfer leg of a cross-cluster migration, or a cold
// spill when the original home's admission refused. The receiver
// registers the service under its own directory and, when a checkpoint
// rides along, restores the warm state onto a policy-picked board.
type TransferRequest struct {
	Config core.ServiceConfig
	// MinWarm and Policy carry the service's registration options to
	// the new home (cluster backends only).
	MinWarm int
	Policy  string
	// Checkpoint is the warm state to restore; nil adopts cold (the
	// service boots on demand at its new home).
	Checkpoint *core.Checkpoint
	// ToDisk parks the checkpoint on the receiver's disk tier instead of
	// booting it; receivers without a disk fall back to a warm restore.
	ToDisk bool
	// OnReady (may be nil) fires when the restored replica serves (or
	// immediately, for a cold or to-disk adoption).
	OnReady func(error)
}

// TransferResponse reports where the adopted service landed.
type TransferResponse struct {
	// Board is the restore destination (-1 for a cold adoption).
	Board int
	Err   *Error
}

// StopRequest evicts a service: every booted replica's VM is destroyed
// and every disk-resident checkpoint is dropped (all replicas, on a
// cluster). Prefer Demote when the state should survive on disk.
type StopRequest struct {
	Name string
}

// StopResponse reports how many replicas were evicted.
type StopResponse struct {
	Stopped int
	Err     *Error
}

// DemoteRequest parks a booted replica's state on its board's block
// device and destroys the VM: warm-in-memory → cold-on-disk. The freed
// memory raises the board's density ceiling; a later activation
// restores from disk at a fraction of the full boot cost.
type DemoteRequest struct {
	Name string
	// Board restricts the demotion to one board's replica (AnyBoard =
	// every booted replica; ignored by single-board backends).
	Board BoardSel
}

// DemoteResponse reports how many replicas were demoted.
type DemoteResponse struct {
	Demoted int
	Err     *Error
}

// PromoteRequest pages a disk-resident replica back into memory:
// cold-on-disk → warm-in-memory. CodeConflict when the replica is not
// on disk, CodeNoMemory when the image no longer fits in RAM.
type PromoteRequest struct {
	Name string
	// Board restricts the promotion to one board's replica (AnyBoard =
	// the first disk-resident replica in board order).
	Board BoardSel
	// OnReady (may be nil) fires when the restored unikernel serves.
	OnReady func(error)
}

// PromoteResponse reports where the promotion started; readiness
// arrives via OnReady.
type PromoteResponse struct {
	Board int
	Err   *Error
}

// StatsRequest snapshots the deployment's counters.
type StatsRequest struct {
	// Into, when set, is the buffer the snapshot is written into: the
	// response returned aliases it and is valid until Into is refilled,
	// so copy what must outlive that. It never crosses the wire.
	Into *StatsBuf
}

// StatsBuf is a reusable snapshot: the response a Stats fill writes and
// the arrays its registries' rows are cut from.
type StatsBuf struct {
	Resp StatsResponse
	Rows obs.Rows
}

// ServiceStats is one service's aggregated lifecycle counters. State is
// the typed lifecycle tier (for a cluster: the most-alive tier any
// replica occupies).
type ServiceStats struct {
	Name  string
	State core.ServiceState
	core.Counters
}

// TriggerStats counts firings per activation frontend.
type TriggerStats struct {
	Name  string
	Fired uint64
}

// StatsResponse is the deployment snapshot.
type StatsResponse struct {
	Services []ServiceStats
	Triggers []TriggerStats
	// Registries carries every subsystem counter registry the backend
	// owns (one per board, plus cluster/federation tiers), name-sorted
	// rows inside each snapshot.
	Registries []obs.Snapshot
	Err        *Error
}

// WatchStatsRequest subscribes to the deployment's stats stream: OnStats
// fires with a StatsResponse every Every of virtual time. The stream
// runs on the deployment's own engine, so snapshots land at
// deterministic instants and two same-seed runs observe identical
// sequences.
type WatchStatsRequest struct {
	// Every is the virtual-time snapshot period (must be positive).
	Every time.Duration
	// OnStats receives each snapshot; returning false ends the stream.
	// The stream refills one buffer per tick: a snapshot is valid until
	// OnStats returns, so copy what must outlive the call.
	OnStats func(StatsResponse) bool
}

// WatchStatsResponse reports stream acceptance; Stop cancels it early.
type WatchStatsResponse struct {
	Stop func()
	Err  *Error
}

// StreamStats drives a WatchStats subscription on eng, snapshotting via
// snap into the stream's one buffer each period. Shared by every
// ControlPlane backend so the verb behaves identically on one board and
// on a cluster.
func StreamStats(eng *sim.Engine, req WatchStatsRequest, snap func(StatsRequest) StatsResponse) WatchStatsResponse {
	if req.Every <= 0 {
		return WatchStatsResponse{Err: Errf(VerbWatchStats, CodeBadRequest, "non-positive period %v", req.Every)}
	}
	if req.OnStats == nil {
		return WatchStatsResponse{Err: Errf(VerbWatchStats, CodeBadRequest, "nil OnStats")}
	}
	stopped := false
	into := new(StatsBuf)
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		if !req.OnStats(snap(StatsRequest{Into: into})) {
			stopped = true
			return
		}
		eng.After(req.Every, tick)
	}
	eng.After(req.Every, tick)
	return WatchStatsResponse{Stop: func() { stopped = true }}
}

// ControlPlane is the uniform management surface: one board or a whole
// cluster, same verbs.
type ControlPlane interface {
	Register(RegisterRequest) RegisterResponse
	Activate(ActivateRequest) ActivateResponse
	Checkpoint(CheckpointRequest) CheckpointResponse
	Restore(RestoreRequest) RestoreResponse
	Migrate(MigrateRequest) MigrateResponse
	Transfer(TransferRequest) TransferResponse
	Demote(DemoteRequest) DemoteResponse
	Promote(PromoteRequest) PromoteResponse
	Stop(StopRequest) StopResponse
	Stats(StatsRequest) StatsResponse
	// WatchStats streams periodic Stats snapshots on the deployment's
	// virtual clock.
	WatchStats(WatchStatsRequest) WatchStatsResponse
}
