package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/blockdev"
	"jitsu/internal/core"
)

// refReady and refOnDisk are the slice-building Entry.ready()/onDisk()
// the in-place walks replaced, kept as the reference the walks are held
// to (and as the list the other tests index).
func refReady(e *Entry) []*Placement {
	var out []*Placement
	for _, p := range e.Replicas {
		if p.in(slotOpen|slotSource|slotReserved) && p.Svc.State.Booted() {
			out = append(out, p)
		}
	}
	return out
}

func refOnDisk(e *Entry) []*Placement {
	var out []*Placement
	for _, p := range e.Replicas {
		if p.in(slotOpen|slotSource|slotReserved) && p.Svc.State == core.StateColdDisk {
			out = append(out, p)
		}
	}
	return out
}

// sameWalk holds every entry's in-place walk to the lists it replaced:
// the same ready and parked replicas in the same order, the same count,
// the same round-robin pick for the next few values of rr, the same
// first-of-tier, and the directory's walk equal to its copy.
func sameWalk(t *testing.T, when string, c *Cluster) {
	t.Helper()
	var walked []*Entry
	for e := range c.dir.walk {
		walked = append(walked, e)
	}
	if !slices.Equal(walked, c.dir.Entries()) {
		t.Fatalf("%s: walk visits %d entries, Entries() holds %d, or in another order", when, len(walked), len(c.dir.Entries()))
	}
	for _, e := range walked {
		ready, parked := refReady(e), refOnDisk(e)
		var gotReady, gotParked []*Placement
		for _, p := range e.Replicas {
			if p.ready() {
				gotReady = append(gotReady, p)
			}
			if p.onDisk() {
				gotParked = append(gotParked, p)
			}
		}
		if !slices.Equal(gotReady, ready) || !slices.Equal(gotParked, parked) {
			t.Fatalf("%s: %s: walk finds %d ready / %d parked, reference %d / %d", when, e.Name, len(gotReady), len(gotParked), len(ready), len(parked))
		}
		if n := e.readyCount(); n != len(ready) {
			t.Fatalf("%s: %s: readyCount %d, reference %d", when, e.Name, n, len(ready))
		}
		for rr := e.rr + 1; rr <= e.rr+5 && len(ready) > 0; rr++ {
			if got, want := e.readyAt(rr%e.readyCount()), ready[rr%len(ready)]; got != want {
				t.Fatalf("%s: %s: rr %d picks board %d, reference board %d", when, e.Name, rr, got.Board, want.Board)
			}
		}
		if got := e.readyAt(len(ready)); got != nil {
			t.Fatalf("%s: %s: readyAt past the last is board %d", when, e.Name, got.Board)
		}
		for _, inFlight := range []bool{true, false} {
			if got, want := e.transferSource(inFlight), refTransferSource(e, inFlight); got != want {
				t.Fatalf("%s: %s: transferSource(%v) = %v, reference %v", when, e.Name, inFlight, got, want)
			}
		}
	}
}

// refTransferSource is how the shed sweep (inFlight false: open slots
// only) and the cluster removal (true) pick from the two lists: the
// first booted replica they would take, else the first parked one.
func refTransferSource(e *Entry, inFlight bool) *Placement {
	for _, p := range append(refReady(e), refOnDisk(e)...) {
		if inFlight || p.state == slotOpen {
			return p
		}
	}
	return nil
}

// TestReplicaWalkMatchesReference drives a 4-board disk-tiered cluster
// with live gossip through 600 seeded operations — lifecycle verbs,
// registrations, joins, graceful leaves and one crash — and after each
// holds every entry's in-place walk to the slice-building reference.
func TestReplicaWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	c := NewCluster(WithBoards(4), WithSeed(24),
		WithBoardOptions(core.WithDisk(blockdev.DefaultConfig())),
		WithProbing(500*time.Millisecond, 100*time.Millisecond, time.Second))
	defer c.StopMembership()
	ctl := c.API()
	for _, i := range rng.Perm(12) {
		ctl.Register(api.RegisterRequest{Config: testService(fmt.Sprintf("site%02d", i), byte(20+i))})
	}
	pick := func(fits func(*Entry) bool) string {
		var names []string
		for e := range c.dir.walk {
			if fits(e) {
				names = append(names, e.Name)
			}
		}
		if len(names) == 0 || rng.Intn(5) == 0 {
			return fmt.Sprintf("site%02d.family.name", rng.Intn(14))
		}
		return names[rng.Intn(len(names))]
	}
	booted := func(e *Entry) bool { return e.readyCount() > 0 }
	did := map[string]int{}
	crashed := false
	for step := 0; step < 600; step++ {
		switch k := rng.Intn(48); {
		case k >= 40:
			// A query for a warm service: the scheduler's round-robin must
			// land on the replica the old list indexing would have.
			if e := c.dir.Lookup(pick(booted)); e != nil && booted(e) {
				ready := refReady(e)
				want := ready[(e.rr+1)%len(ready)]
				if p, warm := c.schedule(e, TriggerCluster, nil); p != want || !warm {
					t.Fatalf("step %d: %s placed on %+v (warm %v), the reference picks board %d", step, e.Name, p, warm, want.Board)
				}
				did["query"]++
			}
		case k < 12:
			if ctl.Activate(api.ActivateRequest{Name: pick(func(e *Entry) bool { return !booted(e) })}).Err == nil {
				did["activate"]++
			}
		case k < 18:
			if ctl.Demote(api.DemoteRequest{Name: pick(booted), Board: api.AnyBoard}).Err == nil {
				did["demote"]++
			}
		case k < 24:
			if ctl.Promote(api.PromoteRequest{Name: pick(func(e *Entry) bool { return len(refOnDisk(e)) > 0 }), Board: api.AnyBoard}).Err == nil {
				did["promote"]++
			}
		case k < 27:
			did["stop"] += ctl.Stop(api.StopRequest{Name: pick(booted)}).Stopped
		case k < 33:
			if ctl.Migrate(api.MigrateRequest{Name: pick(booted), From: api.AnyBoard, To: api.AnyBoard}).Started {
				did["migrate"]++
			}
		case k < 37:
			n := rng.Intn(14)
			if name := fmt.Sprintf("site%02d", n); !c.Unregister(name + ".family.name") {
				ctl.Register(api.RegisterRequest{Config: testService(name, byte(20+n))})
				did["register"]++
			}
		case k < 38 && len(c.members) < 9:
			c.AddBoard()
			did["join"]++
		case k < 39:
			if c.Leave(1+rng.Intn(len(c.members)-1), nil) == nil {
				did["leave"]++
			}
		}
		if step == 300 {
			// A crash: a board that is still a member falls silent, the
			// detector confirms it dead and the directory retires its
			// slots mid-script.
			for _, m := range c.members[1:] {
				if m.Placeable() {
					c.MgmtLink(m.ID).Partition()
					crashed = true
					break
				}
			}
		}
		c.Eng().RunFor(time.Duration(rng.Intn(400)) * time.Millisecond)
		sameWalk(t, fmt.Sprintf("step %d", step), c)
	}
	for _, verb := range []string{"query", "activate", "demote", "promote", "stop", "migrate", "register", "join", "leave"} {
		if did[verb] == 0 {
			t.Errorf("the script never completed a %s (%v)", verb, did)
		}
	}
	if !crashed || c.Confirms == 0 {
		t.Errorf("no board was confirmed dead (crashed %v, confirms %d)", crashed, c.Confirms)
	}
	// Quiesce: every move the script started has landed, parked, been
	// lost or given its slots back.
	c.StopMembership()
	c.RunAll()
	checkClusterQuiescent(t, "after the script", c)
	t.Logf("%v, %d confirms, %d boards", did, c.Confirms, len(c.members))
}

// A walk's body that registers (or unregisters) would shift the slice
// under the walk: the directory refuses, loudly, and the walk closes.
func TestDirectoryWalkForbidsMutation(t *testing.T) {
	c := testCluster(2)
	c.RegisterService(testService("alice", 20))
	for name, mutate := range map[string]func(){
		"register":   func() { c.RegisterService(testService("bob", 21)) },
		"unregister": func() { c.Unregister("alice.family.name") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s under an in-place walk did not panic", name)
				}
			}()
			for range c.dir.walk {
				mutate()
			}
		}()
		if c.dir.walking != 0 {
			t.Fatalf("%s: the walk it broke was left open (%d)", name, c.dir.walking)
		}
	}
	// The copy is what such a sweep ranges.
	for _, e := range c.dir.Entries() {
		c.Unregister(e.Name)
	}
	if n := len(c.dir.ordered); n != 0 {
		t.Fatalf("%d entries left after unregistering over the copy", n)
	}
}
