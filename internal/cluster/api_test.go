package cluster

import (
	"testing"

	"jitsu/internal/api"
	"jitsu/internal/blockdev"
	"jitsu/internal/core"
)

func TestClusterAPIRegisterActivatePlaces(t *testing.T) {
	c := NewCluster(WithBoards(2))
	ctl := c.API()

	if resp := ctl.Register(api.RegisterRequest{Config: testService("alice", 20), Policy: "bogus"}); resp.Err == nil || resp.Err.Code != api.CodeBadRequest {
		t.Fatalf("bogus policy -> %+v, want bad-request", resp.Err)
	}
	resp := ctl.Register(api.RegisterRequest{Config: testService("alice", 20), Policy: "first-fit", MinWarm: 1})
	if resp.Err != nil {
		t.Fatalf("register: %v", resp.Err)
	}
	if dup := ctl.Register(api.RegisterRequest{Config: testService("alice", 20)}); dup.Err == nil || dup.Err.Code != api.CodeConflict {
		t.Fatalf("duplicate -> %+v, want conflict", dup.Err)
	}
	e := c.Directory().Lookup("alice.family.name")
	if e == nil || e.MinWarm != 1 {
		t.Fatalf("entry = %+v", e)
	}
	if _, ok := e.Policy.(FirstFit); !ok {
		t.Fatalf("policy = %T", e.Policy)
	}

	act := ctl.Activate(api.ActivateRequest{Name: "alice.family.name"})
	if act.Err != nil {
		t.Fatalf("activate: %v", act.Err)
	}
	c.RunAll()
	if got := refReady(e); len(got) == 0 {
		t.Fatal("no ready replica after activate")
	}
}

func TestClusterAPIMigrateMovesReplica(t *testing.T) {
	c := NewCluster(WithBoards(2))
	ctl := c.API()
	ctl.Register(api.RegisterRequest{Config: testService("alice", 20)})
	ctl.Activate(api.ActivateRequest{Name: "alice.family.name"})
	c.RunAll()
	e := c.Directory().Lookup("alice.family.name")
	src := refReady(e)[0].Board

	moved := false
	resp := ctl.Migrate(api.MigrateRequest{Name: "alice.family.name",
		OnDone: func(ok bool) { moved = ok }})
	if resp.Err != nil || !resp.Started {
		t.Fatalf("migrate: %+v", resp)
	}
	c.RunAll()
	if !moved {
		t.Fatal("migration did not complete warm")
	}
	ready := refReady(e)
	if len(ready) != 1 || ready[0].Board == src {
		t.Fatalf("replica still on board %d (ready=%d)", src, len(ready))
	}
	if ready[0].Svc.Restores != 1 {
		t.Fatalf("restores = %d, want 1", ready[0].Svc.Restores)
	}

	stats := ctl.Stats(api.StatsRequest{})
	if len(stats.Services) != 1 || stats.Services[0].Restores != 1 {
		t.Fatalf("stats = %+v", stats.Services)
	}
}

func TestClusterAPIMigrateSourceStoppedMidCopy(t *testing.T) {
	// The source is stopped while its checkpoint is on the wire: there is
	// nothing to switch over, so the move ends unmoved and gives both
	// slots back — the destination is free for the next placement.
	c := NewCluster(WithBoards(2))
	ctl := c.API()
	ctl.Register(api.RegisterRequest{Config: testService("alice", 20)})
	ctl.Activate(api.ActivateRequest{Name: "alice.family.name"})
	c.RunAll()

	moved, settled := false, false
	resp := ctl.Migrate(api.MigrateRequest{Name: "alice.family.name",
		OnDone: func(ok bool) { moved, settled = ok, true }})
	if resp.Err != nil || !resp.Started {
		t.Fatalf("migrate: %+v", resp)
	}
	if stop := ctl.Stop(api.StopRequest{Name: "alice.family.name"}); stop.Stopped != 1 {
		t.Fatalf("stop mid-copy stopped %d replicas, want 1", stop.Stopped)
	}
	c.RunAll()
	if !settled || moved || c.Migrations != 0 {
		t.Fatalf("settled=%v moved=%v migrations=%d, want true/false/0", settled, moved, c.Migrations)
	}
	checkClusterQuiescent(t, "after the stopped migration", c)
}

func TestClusterAPIStopAllReplicas(t *testing.T) {
	c := NewCluster(WithBoards(2))
	ctl := c.API()
	ctl.Register(api.RegisterRequest{Config: testService("alice", 20), MinWarm: 2})
	c.RunAll()
	e := c.Directory().Lookup("alice.family.name")
	if len(refReady(e)) != 2 {
		t.Fatalf("ready = %d, want 2 (min-warm)", len(refReady(e)))
	}
	resp := ctl.Stop(api.StopRequest{Name: "alice.family.name"})
	if resp.Err != nil || resp.Stopped != 2 {
		t.Fatalf("stop -> %+v", resp)
	}
	if resp := ctl.Stop(api.StopRequest{Name: "ghost.family.name"}); resp.Err == nil || resp.Err.Code != api.CodeNotFound {
		t.Fatalf("stop unknown -> %+v, want not-found", resp.Err)
	}
}

func TestClusterAPISpeculativeActivatePrewarms(t *testing.T) {
	c := NewCluster(WithBoards(2))
	ctl := c.API()
	ctl.Register(api.RegisterRequest{Config: testService("alice", 20)})
	resp := ctl.Activate(api.ActivateRequest{Name: "alice.family.name", Speculative: true})
	if resp.Err != nil {
		t.Fatalf("speculative activate: %v", resp.Err)
	}
	c.RunAll()
	e := c.Directory().Lookup("alice.family.name")
	ready := refReady(e)
	if len(ready) != 1 {
		t.Fatalf("ready = %d", len(ready))
	}
	if ready[0].Svc.ColdStarts != 0 {
		t.Fatalf("speculative boot counted a cold start: %d", ready[0].Svc.ColdStarts)
	}
	if !ready[0].Svc.State.Booted() {
		t.Fatalf("state = %v", ready[0].Svc.State)
	}
}

func TestClusterAPIDemotePromoteRoundTrip(t *testing.T) {
	c := NewCluster(WithBoards(2), WithBoardOptions(core.WithDisk(blockdev.DefaultConfig())))
	ctl := c.API()
	ctl.Register(api.RegisterRequest{Config: testService("alice", 20)})
	ctl.Activate(api.ActivateRequest{Name: "alice.family.name"})
	c.RunAll()
	e := c.Directory().Lookup("alice.family.name")
	board := refReady(e)[0].Board

	// Demote parks the replica on its board's disk tier.
	if resp := ctl.Demote(api.DemoteRequest{Name: "alice.family.name"}); resp.Err != nil || resp.Demoted != 1 {
		t.Fatalf("demote -> %+v", resp)
	}
	c.RunAll()
	pl := e.Replicas[board]
	if pl.Svc.State != core.StateColdDisk {
		t.Fatalf("state after demote = %v, want cold-disk", pl.Svc.State)
	}

	// A second demote finds nothing booted.
	if resp := ctl.Demote(api.DemoteRequest{Name: "alice.family.name"}); resp.Err == nil || resp.Err.Code != api.CodeConflict {
		t.Fatalf("demote with nothing booted -> %+v, want conflict", resp.Err)
	}

	// Checkpoint on a disk-resident replica returns the stored
	// checkpoint without paging anything in.
	if resp := ctl.Checkpoint(api.CheckpointRequest{Name: "alice.family.name"}); resp.Err != nil {
		t.Fatalf("checkpoint of disk replica -> %+v", resp.Err)
	} else if resp.Checkpoint.StateMiB != e.Base.StateMiB {
		t.Fatalf("checkpoint StateMiB = %d, want %d", resp.Checkpoint.StateMiB, e.Base.StateMiB)
	}
	if pl.Svc.State != core.StateColdDisk {
		t.Fatalf("checkpoint paged the replica in: %v", pl.Svc.State)
	}

	// Promote pages it back to warm memory and names the board.
	promoted := false
	resp := ctl.Promote(api.PromoteRequest{Name: "alice.family.name",
		OnReady: func(err error) {
			if err != nil {
				t.Errorf("promote ready: %v", err)
			}
			promoted = true
		}})
	if resp.Err != nil || resp.Board != board {
		t.Fatalf("promote -> %+v, want board %d", resp, board)
	}
	c.RunAll()
	if !promoted || pl.Svc.State != core.StateWarmMemory {
		t.Fatalf("after promote: ready=%v state=%v, want warm-memory", promoted, pl.Svc.State)
	}
	if pl.Svc.DiskRestores != 1 {
		t.Fatalf("disk restores = %d, want 1", pl.Svc.DiskRestores)
	}

	// Nothing left on disk: a second promote conflicts.
	if resp := ctl.Promote(api.PromoteRequest{Name: "alice.family.name"}); resp.Err == nil || resp.Err.Code != api.CodeConflict || resp.Board != -1 {
		t.Fatalf("promote with nothing on disk -> %+v, want conflict/-1", resp)
	}

	if resp := ctl.Demote(api.DemoteRequest{Name: "ghost.family.name"}); resp.Err == nil || resp.Err.Code != api.CodeNotFound {
		t.Fatalf("demote unknown -> %+v, want not-found", resp.Err)
	}
	if resp := ctl.Promote(api.PromoteRequest{Name: "ghost.family.name"}); resp.Err == nil || resp.Err.Code != api.CodeNotFound {
		t.Fatalf("promote unknown -> %+v, want not-found", resp.Err)
	}
}
