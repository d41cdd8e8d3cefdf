package api_test

import (
	"testing"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/core"
	"jitsu/internal/netstack"
	"jitsu/internal/unikernel"
)

func boardPlane(t *testing.T, opts ...core.Option) (*core.Board, api.ControlPlane) {
	t.Helper()
	b := core.New(opts...)
	return b, api.ForBoard(b)
}

func svcConfig(name string, lastOctet byte) core.ServiceConfig {
	return core.ServiceConfig{
		Name:  name + ".family.name",
		IP:    netstack.IPv4(10, 0, 0, lastOctet),
		Port:  80,
		Image: unikernel.UnikernelImage(name, unikernel.NewStaticSiteApp(name)),
	}
}

func TestBoardRegisterAndErrorCodes(t *testing.T) {
	_, ctl := boardPlane(t)
	if resp := ctl.Register(api.RegisterRequest{}); resp.Err == nil || resp.Err.Code != api.CodeBadRequest {
		t.Fatalf("empty register -> %+v, want bad-request", resp.Err)
	}
	resp := ctl.Register(api.RegisterRequest{Config: svcConfig("alice", 20)})
	if resp.Err != nil || resp.Name != "alice.family.name" {
		t.Fatalf("register -> %q, %v", resp.Name, resp.Err)
	}
	if resp := ctl.Register(api.RegisterRequest{Config: svcConfig("alice", 20)}); resp.Err == nil || resp.Err.Code != api.CodeConflict {
		t.Fatalf("duplicate register -> %+v, want conflict", resp.Err)
	}
	if resp := ctl.Activate(api.ActivateRequest{Name: "ghost.family.name"}); resp.Err == nil || resp.Err.Code != api.CodeNotFound {
		t.Fatalf("activate unknown -> %+v, want not-found", resp.Err)
	}
	if resp := ctl.Migrate(api.MigrateRequest{Name: "alice.family.name"}); resp.Err == nil || resp.Err.Code != api.CodeUnavailable {
		t.Fatalf("single-board migrate -> %+v, want unavailable", resp.Err)
	}
}

func TestBoardActivateCheckpointRestoreStopStats(t *testing.T) {
	b, ctl := boardPlane(t)
	ctl.Register(api.RegisterRequest{Config: svcConfig("alice", 20)})

	// Checkpoint before readiness: conflict.
	if resp := ctl.Checkpoint(api.CheckpointRequest{Name: "alice.family.name"}); resp.Err == nil || resp.Err.Code != api.CodeConflict {
		t.Fatalf("cold checkpoint -> %+v, want conflict", resp.Err)
	}

	var readyErr error
	ready := false
	resp := ctl.Activate(api.ActivateRequest{Name: "alice.family.name", OnReady: func(err error) {
		ready, readyErr = true, err
	}})
	if resp.Err != nil {
		t.Fatalf("activate: %v", resp.Err)
	}
	b.Eng.Run()
	if !ready || readyErr != nil {
		t.Fatalf("OnReady: ready=%v err=%v", ready, readyErr)
	}

	cp := ctl.Checkpoint(api.CheckpointRequest{Name: "alice.family.name"})
	if cp.Err != nil || cp.Checkpoint == nil {
		t.Fatalf("checkpoint: %v", cp.Err)
	}

	// Restore onto a running service: conflict.
	if resp := ctl.Restore(api.RestoreRequest{Name: "alice.family.name", Checkpoint: cp.Checkpoint}); resp.Err == nil || resp.Err.Code != api.CodeConflict {
		t.Fatalf("restore-onto-running -> %+v, want conflict", resp.Err)
	}

	if resp := ctl.Stop(api.StopRequest{Name: "alice.family.name"}); resp.Err != nil || resp.Stopped != 1 {
		t.Fatalf("stop -> %+v", resp)
	}
	b.Eng.Run()

	// Restore the stopped service from its checkpoint: the fast boot path.
	if resp := ctl.Restore(api.RestoreRequest{Name: "alice.family.name", Checkpoint: cp.Checkpoint}); resp.Err != nil {
		t.Fatalf("restore: %v", resp.Err)
	}
	b.Eng.Run()

	stats := ctl.Stats(api.StatsRequest{})
	if len(stats.Services) != 1 {
		t.Fatalf("stats services = %d", len(stats.Services))
	}
	s := stats.Services[0]
	if s.Name != "alice.family.name" || s.State != core.StateWarmMemory || s.Launches != 2 || s.Restores != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// The control-plane firings show up under the control trigger.
	found := false
	for _, tr := range stats.Triggers {
		if tr.Name == core.TriggerControl && tr.Fired > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no control-trigger firings in %+v", stats.Triggers)
	}
}

func TestBoardActivateNoMemory(t *testing.T) {
	_, ctl := boardPlane(t, core.WithMemory(8))
	ctl.Register(api.RegisterRequest{Config: svcConfig("alice", 20)})
	resp := ctl.Activate(api.ActivateRequest{Name: "alice.family.name"})
	if resp.Err == nil || resp.Err.Code != api.CodeNoMemory {
		t.Fatalf("activate -> %+v, want no-memory", resp.Err)
	}
}

func TestBoardRestoreValidation(t *testing.T) {
	_, ctl := boardPlane(t)
	ctl.Register(api.RegisterRequest{Config: svcConfig("alice", 20)})
	if resp := ctl.Restore(api.RestoreRequest{Name: "alice.family.name"}); resp.Err == nil || resp.Err.Code != api.CodeBadRequest {
		t.Fatalf("nil-checkpoint restore -> %+v, want bad-request", resp.Err)
	}
	if resp := ctl.Restore(api.RestoreRequest{Name: "ghost.family.name", Checkpoint: &core.Checkpoint{}}); resp.Err == nil || resp.Err.Code != api.CodeNotFound {
		t.Fatalf("unknown restore -> %+v, want not-found", resp.Err)
	}
}

func TestBoardSpeculativeActivateSkipsColdStartAccounting(t *testing.T) {
	b, ctl := boardPlane(t)
	ctl.Register(api.RegisterRequest{Config: svcConfig("alice", 20)})
	ctl.Activate(api.ActivateRequest{Name: "alice.family.name", Speculative: true})
	b.Eng.RunFor(2 * time.Second)
	svc, err := b.Jitsu.Service("alice.family.name")
	if err != nil {
		t.Fatal(err)
	}
	if svc.State != core.StateWarmMemory || svc.Launches != 1 || svc.ColdStarts != 0 {
		t.Fatalf("state=%v launches=%d coldstarts=%d, want warm-memory/1/0", svc.State, svc.Launches, svc.ColdStarts)
	}
}

// TestBoardTransfer exercises the federation transfer leg at the
// single-board level: a cold adoption registers the config, a warm
// transfer restores the checkpoint (counted as a restore, not a cold
// start), and the conflict/validation codes hold.
func TestBoardTransfer(t *testing.T) {
	srcBoard, src := boardPlane(t)
	if resp := src.Register(api.RegisterRequest{Config: svcConfig("alice", 20)}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp := src.Activate(api.ActivateRequest{Name: "alice.family.name"}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	srcBoard.Eng.Run()
	cp := src.Checkpoint(api.CheckpointRequest{Name: "alice.family.name"})
	if cp.Err != nil {
		t.Fatal(cp.Err)
	}

	dstBoard, dst := boardPlane(t)
	if resp := dst.Transfer(api.TransferRequest{}); resp.Err == nil || resp.Err.Code != api.CodeBadRequest {
		t.Fatalf("empty transfer: %+v", resp.Err)
	}
	ready := false
	if resp := dst.Transfer(api.TransferRequest{
		Config: svcConfig("alice", 20), Checkpoint: cp.Checkpoint,
		OnReady: func(err error) { ready = err == nil },
	}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	dstBoard.Eng.Run()
	if !ready {
		t.Fatal("warm transfer never became ready")
	}
	stats := dst.Stats(api.StatsRequest{})
	if len(stats.Services) != 1 || stats.Services[0].Restores != 1 || stats.Services[0].ColdStarts != 0 {
		t.Fatalf("transfer accounting wrong: %+v", stats.Services)
	}
	// Adopting a name the board already serves is a conflict.
	if resp := dst.Transfer(api.TransferRequest{Config: svcConfig("alice", 20)}); resp.Err == nil || resp.Err.Code != api.CodeConflict {
		t.Fatalf("duplicate transfer: %+v", resp.Err)
	}
	// Cold adoption: no checkpoint, registers and reports immediately.
	coldReady := false
	if resp := dst.Transfer(api.TransferRequest{
		Config:  svcConfig("bob", 21),
		OnReady: func(err error) { coldReady = err == nil },
	}); resp.Err != nil || resp.Board != -1 {
		t.Fatalf("cold transfer: board=%d err=%v", resp.Board, resp.Err)
	}
	if !coldReady {
		t.Fatal("cold adoption did not report ready")
	}
}

func TestBoardStatsCarriesRegistrySnapshot(t *testing.T) {
	b, ctl := boardPlane(t)
	ctl.Register(api.RegisterRequest{Config: svcConfig("alice", 20)})
	ctl.Activate(api.ActivateRequest{Name: "alice.family.name"})
	b.Eng.Run()
	stats := ctl.Stats(api.StatsRequest{})
	if len(stats.Registries) != 1 {
		t.Fatalf("board stats carry %d registries, want 1", len(stats.Registries))
	}
	snap := stats.Registries[0]
	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	// The one boot shows as the launch counter's row; its latency is the
	// board tracer's "boot" span, not a registry row.
	if counters["activation.launches"] != 1 || counters["activation.cold_starts"] != 1 {
		t.Fatalf("activation counters missing from snapshot: %v", counters)
	}
	if counters["sim.fired"] == 0 {
		t.Fatalf("sim.fired not mirrored: %v", counters)
	}
}

func TestWatchStatsStreamsOnVirtualClock(t *testing.T) {
	b, ctl := boardPlane(t)
	ctl.Register(api.RegisterRequest{Config: svcConfig("alice", 20)})

	if resp := ctl.WatchStats(api.WatchStatsRequest{Every: 0, OnStats: func(api.StatsResponse) bool { return true }}); resp.Err == nil || resp.Err.Code != api.CodeBadRequest {
		t.Fatalf("zero period -> %+v, want bad-request", resp.Err)
	}
	if resp := ctl.WatchStats(api.WatchStatsRequest{Every: time.Second}); resp.Err == nil || resp.Err.Code != api.CodeBadRequest {
		t.Fatalf("nil OnStats -> %+v, want bad-request", resp.Err)
	}

	var at []time.Duration
	resp := ctl.WatchStats(api.WatchStatsRequest{Every: time.Second, OnStats: func(s api.StatsResponse) bool {
		at = append(at, time.Duration(b.Eng.Now()))
		return len(at) < 3 // ask the stream to end itself after 3 ticks
	}})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	b.Eng.RunUntil(10 * time.Second)
	if len(at) != 3 || at[0] != time.Second || at[1] != 2*time.Second || at[2] != 3*time.Second {
		t.Fatalf("snapshots at %v, want 1s,2s,3s", at)
	}

	// A second stream cancelled via Stop delivers nothing further.
	ticks := 0
	resp = ctl.WatchStats(api.WatchStatsRequest{Every: time.Second, OnStats: func(api.StatsResponse) bool {
		ticks++
		return true
	}})
	resp.Stop()
	b.Eng.RunUntil(20 * time.Second)
	if ticks != 0 {
		t.Fatalf("stopped stream still delivered %d snapshots", ticks)
	}
}
