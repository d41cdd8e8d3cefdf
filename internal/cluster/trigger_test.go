package cluster

import (
	"testing"

	"jitsu/internal/api"
	"jitsu/internal/core"
)

// TestDetachedBuiltinCannotWipeClusterHook pins the ownership rule: the
// cluster trigger chains over board 0's built-in DNS frontend, so
// removing that displaced built-in must leave the scheduler's hooks
// alone.
func TestDetachedBuiltinCannotWipeClusterHook(t *testing.T) {
	c := NewCluster(WithBoards(2))
	ctl := c.API()
	ctl.Register(api.RegisterRequest{Config: testService("alice", 20)})

	front := c.Boards[0]
	var builtin core.Trigger
	for _, tr := range front.Triggers() {
		if tr.Name() == core.TriggerDNS {
			builtin = tr
		}
	}
	if builtin == nil {
		t.Fatal("no built-in dns trigger on board 0")
	}
	front.RemoveTrigger(builtin)
	if front.DNS.Intercept == nil {
		t.Fatal("removing the displaced built-in wiped the cluster's DNS hook")
	}

	// The scheduler still answers: a placement succeeds end to end.
	resp := ctl.Activate(api.ActivateRequest{Name: "alice.family.name"})
	if resp.Err != nil {
		t.Fatalf("activate after detach: %v", resp.Err)
	}
	c.RunAll()
	e := c.Directory().Lookup("alice.family.name")
	if len(refReady(e)) != 1 {
		t.Fatalf("ready = %d after detach", len(refReady(e)))
	}
}

// TestClusterActivateSurvivesPoolReconcile pins the schedule() fix: a
// control-plane activation must feed the rate estimator and pin its
// replica, so the next unrelated reconcile pass doesn't reclaim it.
func TestClusterActivateSurvivesPoolReconcile(t *testing.T) {
	c := NewCluster(WithBoards(2))
	ctl := c.API()
	ctl.Register(api.RegisterRequest{Config: testService("alice", 20)})

	var readyErr error
	resp := ctl.Activate(api.ActivateRequest{Name: "alice.family.name",
		OnReady: func(err error) { readyErr = err }})
	if resp.Err != nil {
		t.Fatalf("activate: %v", resp.Err)
	}
	c.RunAll()
	if readyErr != nil {
		t.Fatalf("OnReady: %v", readyErr)
	}
	e := c.Directory().Lookup("alice.family.name")
	if e.Rate() == 0 {
		t.Fatal("control-plane activation did not feed the rate estimator")
	}
	// An unrelated reconcile pass (what any next arrival triggers) must
	// not tear the fresh replica down.
	c.Pools.ReconcileAll()
	c.RunAll()
	if len(refReady(e)) != 1 {
		t.Fatalf("replica reclaimed right after activation (ready=%d)", len(refReady(e)))
	}

	// A warm re-activation delivers OnReady immediately, exactly once.
	calls := 0
	resp = ctl.Activate(api.ActivateRequest{Name: "alice.family.name",
		OnReady: func(error) { calls++ }})
	if resp.Err != nil || calls != 1 {
		t.Fatalf("warm activate: err=%v onready-calls=%d", resp.Err, calls)
	}
}
