package cluster

import (
	"testing"
	"time"

	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// ---- dynamic membership ----

func TestAddBoardBecomesPlaceable(t *testing.T) {
	c := testCluster(1)
	c.RegisterService(testService("alice", 20))
	m := c.AddBoard()
	if m.ID != 1 || m.State != MemberJoining {
		t.Fatalf("new member id=%d state=%v, want 1/joining", m.ID, m.State)
	}
	c.RunAll() // the join message reaches board 0's agent
	if m.State != MemberAlive {
		t.Fatalf("state after join = %v, want alive", m.State)
	}
	if c.Joins != 1 {
		t.Fatalf("joins = %d, want 1", c.Joins)
	}
	// The newcomer has a replica slot and shows up in placement views.
	e := c.Directory().Lookup("alice.family.name")
	if replicaOn(e, 1) == nil {
		t.Fatal("no replica slot on the joined board")
	}
	views := c.views(e, nil)
	if len(views) != 2 {
		t.Fatalf("views = %d boards, want 2", len(views))
	}
}

func TestJoinDuringInFlightPlacement(t *testing.T) {
	// A cold boot is in flight when a new board joins: the placement
	// must complete undisturbed, and the next cold placement may use
	// the newcomer.
	c := testCluster(2)
	c.RegisterService(testService("alice", 20))
	cl := c.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))

	var status int
	var served int
	cl.Fetch("alice.family.name", "/", 10*time.Second,
		func(board int, resp *netstack.HTTPResponse, d sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			served, status = board, resp.Status
		})
	// Let the DNS answer go out and the boot start, then join mid-boot.
	c.RunUntil(50 * time.Millisecond)
	e := c.Directory().Lookup("alice.family.name")
	if e.launching() == nil {
		t.Fatal("test setup: no boot in flight at join time")
	}
	m := c.AddBoard()
	c.RunAll()
	if status != 200 {
		t.Fatalf("in-flight placement returned %d, want 200", status)
	}
	if m.State != MemberAlive {
		t.Fatalf("joiner state = %v, want alive", m.State)
	}
	// Fill the original boards and force the next service onto the
	// newcomer: register a second service and exhaust memory elsewhere.
	c.Boards[0].Hyp.TotalMemMiB = 0
	c.Boards[1].Hyp.TotalMemMiB = 0
	c.RegisterService(testService("bob", 21))
	var bobBoard int
	cl.Fetch("bob.family.name", "/", 10*time.Second,
		func(board int, resp *netstack.HTTPResponse, d sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			bobBoard = board
		})
	c.RunAll()
	if bobBoard != m.ID {
		t.Fatalf("bob placed on board %d, want the joiner %d", bobBoard, m.ID)
	}
	_ = served
}

// ---- graceful leave: migration vs preempt-and-reboot ----

func leaveCluster(t *testing.T, migrate bool) *Cluster {
	t.Helper()
	c := NewCluster(WithBoards(3), WithMigrateOnLeave(migrate))
	// MinWarm 2 puts ready replicas on boards 0 and 1 (least-loaded
	// breaks ties in id order).
	c.RegisterService(testService("alice", 20), WithMinWarm(2))
	c.RunAll()
	e := c.Directory().Lookup("alice.family.name")
	if replicaOn(e, 1) == nil || !e.Replicas[1].Svc.State.Booted() {
		t.Fatal("test setup: no warm replica on board 1")
	}
	return c
}

func TestLeaveMigratesWarmReplicas(t *testing.T) {
	c := leaveCluster(t, true)
	e := c.Directory().Lookup("alice.family.name")
	epochBefore := c.front().DNS.Epoch
	localBefore := c.Boards[1].DNS.Epoch

	left := false
	if err := c.Leave(1, func() { left = true }); err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if !left {
		t.Fatal("leave never completed")
	}
	if c.Migrations != 1 || c.Lost != 0 {
		t.Fatalf("migrations=%d lost=%d, want 1/0", c.Migrations, c.Lost)
	}
	// The warm replica moved: board 2 is ready, board 1 is retired.
	if replicaOn(e, 2) == nil || !e.Replicas[2].Svc.State.Booted() {
		t.Fatal("no ready replica on board 2 after migration")
	}
	if e.Replicas[2].Svc.Restores != 1 {
		t.Fatalf("restores = %d, want 1 (restored from checkpoint, not cold-booted)", e.Replicas[2].Svc.Restores)
	}
	if e.Replicas[1].state != slotGone {
		t.Fatal("board 1's slot not retired")
	}
	if c.members[1].State != MemberLeft {
		t.Fatalf("member 1 state = %v, want left", c.members[1].State)
	}
	// Both the cluster's answer epoch and the departed board's local
	// directory epoch moved, and its registration is gone.
	if c.front().DNS.Epoch == epochBefore {
		t.Fatal("front DNS epoch did not move on departure")
	}
	if c.Boards[1].DNS.Epoch == localBefore {
		t.Fatal("departed board's DNS epoch did not move")
	}
	if _, err := c.Boards[1].Jitsu.Service("alice.family.name"); err == nil {
		t.Fatal("departed board still has the service registered")
	}
	// The service is still warm: the next query is a warm hit served in
	// milliseconds, not a cold boot.
	cl := c.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	var rt sim.Duration
	cl.Fetch("alice.family.name", "/", 10*time.Second,
		func(board int, resp *netstack.HTTPResponse, d sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			rt = d
		})
	c.RunAll()
	if c.WarmHits != 1 {
		t.Fatalf("warm hits = %d, want 1 after migration", c.WarmHits)
	}
	if rt > 50*time.Millisecond {
		t.Fatalf("post-migration fetch took %v, want warm-path ms", rt)
	}
	checkClusterQuiescent(t, "after the leave", c)
}

func TestLeavePreemptBaselineGoesCold(t *testing.T) {
	c := leaveCluster(t, false)
	if err := c.Leave(1, nil); err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if c.Migrations != 0 || c.Lost != 1 {
		t.Fatalf("migrations=%d lost=%d, want 0/1 in the preempt baseline", c.Migrations, c.Lost)
	}
	// The pool manager re-warms a replacement to honour MinWarm, but it
	// pays a full boot: the departed board's warm state was destroyed,
	// not moved.
	e := c.Directory().Lookup("alice.family.name")
	p := replicaOn(e, 2)
	if p == nil || !p.Svc.State.Booted() {
		t.Fatal("no replacement replica on board 2")
	}
	if p.Svc.Restores != 0 {
		t.Fatalf("restores = %d, want 0 — the baseline must cold-boot, not restore", p.Svc.Restores)
	}
	if p.Svc.Launches != 1 {
		t.Fatalf("launches = %d, want 1 fresh boot on board 2", p.Svc.Launches)
	}
	checkClusterQuiescent(t, "after the leave", c)
}

func TestConcurrentLeavesReserveDistinctDestinations(t *testing.T) {
	// Two boards with warm replicas of the same service leave at the
	// same instant. The first migration reserves its destination slot
	// for the whole checkpoint copy, so the second must pick the other
	// free board instead of colliding and sacrificing its source.
	c := NewCluster(WithBoards(5))
	c.RegisterService(testService("alice", 20), WithMinWarm(3))
	c.RunAll() // replicas ready on boards 0, 1, 2
	e := c.Directory().Lookup("alice.family.name")
	for _, id := range []int{1, 2} {
		if replicaOn(e, id) == nil || !e.Replicas[id].Svc.State.Booted() {
			t.Fatalf("test setup: no warm replica on board %d", id)
		}
	}
	if err := c.Leave(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(2, nil); err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if c.Migrations != 2 || c.Lost != 0 {
		t.Fatalf("migrations=%d lost=%d, want 2/0 — concurrent moves must not collide", c.Migrations, c.Lost)
	}
	for _, id := range []int{3, 4} {
		p := replicaOn(e, id)
		if p == nil || !p.Svc.State.Booted() {
			t.Fatalf("no ready replica on board %d after concurrent migrations", id)
		}
		if p.Svc.Restores != 1 {
			t.Fatalf("board %d restores = %d, want 1", id, p.Svc.Restores)
		}
	}
	checkClusterQuiescent(t, "after the leave", c)
}

func TestLeaveRefusedForFrontAndDeparted(t *testing.T) {
	c := testCluster(2)
	if err := c.Leave(0, nil); err == nil {
		t.Fatal("board 0 must not be allowed to leave")
	}
	if err := c.Leave(1, nil); err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if err := c.Leave(1, nil); err == nil {
		t.Fatal("leaving twice must be refused")
	}
	checkClusterQuiescent(t, "after the leave", c)
}

// ---- failure detection: suspect, refute, confirm ----

func TestSuspectRefuteConfirmFlapping(t *testing.T) {
	c := NewCluster(WithBoards(3), WithProbing(500*time.Millisecond, 200*time.Millisecond, 3*time.Second))
	c.RegisterService(testService("alice", 20), WithMinWarm(2))
	m := c.members[1]

	// Short partition: board 1 drops off the management network for
	// less than the suspect timeout, then returns and refutes.
	c.RunUntil(1 * time.Second)
	m.agent.nic.Down = true
	c.RunUntil(2200 * time.Millisecond)
	if m.State != MemberSuspect {
		t.Fatalf("state during partition = %v, want suspect", m.State)
	}
	m.agent.nic.Down = false
	c.RunUntil(4800 * time.Millisecond)
	if m.State != MemberAlive {
		t.Fatalf("state after heal = %v, want alive (refuted)", m.State)
	}
	if c.Confirms != 0 {
		t.Fatalf("confirms = %d, want 0 — flapping must not kill the board", c.Confirms)
	}
	// Its warm replica survived the flap.
	e := c.Directory().Lookup("alice.family.name")
	if replicaOn(e, 1) == nil || !e.Replicas[1].Svc.State.Booted() {
		t.Fatal("flapping destroyed the warm replica on board 1")
	}

	// Long partition: the suspicion stands unrefuted and the failure
	// detector confirms the death; the directory retires the board.
	m.agent.nic.Down = true
	c.RunUntil(12 * time.Second)
	if m.State != MemberDead {
		t.Fatalf("state after long partition = %v, want dead", m.State)
	}
	if c.Confirms != 1 {
		t.Fatalf("confirms = %d, want 1", c.Confirms)
	}
	if c.Lost == 0 {
		t.Fatal("confirmed death must count the lost warm replica")
	}
	if replicaOn(e, 1) != nil {
		t.Fatal("dead board's replica slot not retired")
	}
	c.StopMembership()
	c.RunAll()
}

// ---- DNS answer-cache invalidation on departure ----

func TestDepartureInvalidatesBoardAnswerCache(t *testing.T) {
	c := leaveCluster(t, true)
	b := c.Boards[1]

	// Prime board 1's local answer cache by querying its own DNS server
	// directly (clients normally only talk to board 0; the per-board
	// fast path still serves diagnostics and placed traffic).
	host := b.AddClient("probe", netstack.IPv4(10, 0, 0, 77))
	name := "alice.family.name"
	resolve := func() *dns.Message {
		var got *dns.Message
		r := &dns.Client{Host: host}
		r.Query(core.NSAddr, name, dns.TypeA, time.Second, func(m *dns.Message, _ sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			got = m
		})
		c.RunAll()
		return got
	}
	if m := resolve(); m.RCode != dns.RCodeNoError || len(m.Answers) == 0 {
		t.Fatalf("pre-departure resolve failed: %v", m.RCode)
	}
	resolve() // second hit fills + serves the packed answer cache
	if b.DNS.CacheHits == 0 {
		t.Fatal("test setup: answer cache never hit")
	}
	epoch := b.DNS.Epoch

	if err := c.Leave(1, nil); err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if b.DNS.Epoch <= epoch {
		t.Fatalf("epoch = %d, want > %d after departure", b.DNS.Epoch, epoch)
	}
	// The cached answer is gone with the registration: the same query
	// now walks the zone and NXDomains instead of serving stale wire.
	hits := b.DNS.CacheHits
	if m := resolve(); m.RCode != dns.RCodeNXDomain {
		t.Fatalf("post-departure rcode = %v, want NXDomain", m.RCode)
	}
	if b.DNS.CacheHits != hits {
		t.Fatal("stale cached answer served after departure")
	}
}
