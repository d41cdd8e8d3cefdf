package cluster

import (
	"errors"
	"testing"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/blockdev"
	"jitsu/internal/core"
	"jitsu/internal/netstack"
	"jitsu/internal/power"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
)

func testService(name string, lastOctet byte) core.ServiceConfig {
	return core.ServiceConfig{
		Name:  name + ".family.name",
		IP:    netstack.IPv4(10, 0, 0, lastOctet),
		Port:  80,
		Image: unikernel.UnikernelImage(name, unikernel.NewStaticSiteApp(name)),
	}
}

func testCluster(boards int) *Cluster {
	return NewCluster(WithBoards(boards))
}

// ---- placement policies ----

func views(free ...int) []BoardView {
	out := make([]BoardView, len(free))
	for i, f := range free {
		out[i] = BoardView{Index: i, FreeMemMiB: f, NeedMiB: 16, Model: power.Cubieboard2()}
	}
	return out
}

func TestFirstFitPicksFirstWithRoom(t *testing.T) {
	p := FirstFit{}
	if got := p.Pick(views(8, 100, 200)); got != 1 {
		t.Fatalf("pick = %d, want 1", got)
	}
	if got := p.Pick(views(8, 4)); got != -1 {
		t.Fatalf("pick = %d, want -1 when nothing fits", got)
	}
}

func TestRoundRobinRotates(t *testing.T) {
	p := &RoundRobin{}
	v := views(100, 100, 100)
	seq := []int{p.Pick(v), p.Pick(v), p.Pick(v), p.Pick(v)}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("round-robin sequence %v, want %v", seq, want)
		}
	}
	// Full boards are skipped.
	if got := p.Pick(views(4, 100, 4)); got != 1 {
		t.Fatalf("pick = %d, want 1", got)
	}
}

func TestLeastLoadedPicksMostFree(t *testing.T) {
	if got := (LeastLoaded{}).Pick(views(50, 400, 100)); got != 1 {
		t.Fatalf("pick = %d, want 1", got)
	}
}

func TestPowerAwarePrefersActiveBoards(t *testing.T) {
	v := views(400, 100)
	v[1].GuestDomains = 2 // board 1 is already awake
	if got := (PowerAware{}).Pick(v); got != 1 {
		t.Fatalf("pick = %d, want active board 1", got)
	}
	// All idle: waking is unavoidable, any fitting board will do — the
	// policy packs the tightest one so future placements consolidate.
	if got := (PowerAware{}).Pick(views(400, 100)); got != 1 {
		t.Fatalf("pick = %d, want tightest idle board 1", got)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"first-fit", "round-robin", "least-loaded", "power-aware"} {
		p := PolicyByName(name)
		if p == nil || p.Name() != name {
			t.Fatalf("PolicyByName(%q) = %v", name, p)
		}
	}
	if PolicyByName("bogus") != nil {
		t.Fatal("unknown policy must return nil")
	}
}

func TestPerServicePolicySelection(t *testing.T) {
	c := testCluster(2)
	a := c.RegisterService(testService("alice", 20), WithServicePolicy(FirstFit{}))
	b := c.RegisterService(testService("bob", 21))
	if a.Policy.Name() != "first-fit" {
		t.Fatalf("alice policy = %s", a.Policy.Name())
	}
	if b.Policy.Name() != "least-loaded" {
		t.Fatalf("bob policy = %s (want the cluster default)", b.Policy.Name())
	}
}

// ---- scheduler: placed vs SERVFAIL ----

func TestClusterPlacesInsteadOfClientWalking(t *testing.T) {
	// Board 0 cannot host guests; the Fleet baseline would make the
	// client eat a SERVFAIL and retry board 1. The cluster directory
	// answers the one query with board 1's replica directly.
	c := testCluster(2)
	c.Boards[0].Hyp.TotalMemMiB = 8
	c.RegisterService(testService("alice", 20))
	cl := c.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))

	var servedBy, status int
	cl.Fetch("alice.family.name", "/", 10*time.Second,
		func(board int, resp *netstack.HTTPResponse, d sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			servedBy, status = board, resp.Status
		})
	c.RunAll()
	if servedBy != 1 || status != 200 {
		t.Fatalf("served by board %d status %d, want board 1 / 200", servedBy, status)
	}
	if cl.ServFails != 0 || c.ServFails != 0 {
		t.Fatalf("servfails client=%d cluster=%d, want 0/0", cl.ServFails, c.ServFails)
	}
	if c.Placed != 1 {
		t.Fatalf("placed = %d, want 1", c.Placed)
	}
}

func TestClusterServFailWhenAllBoardsFull(t *testing.T) {
	c := NewCluster(WithBoards(3), WithBoardOptions(core.WithMemory(8)))
	c.RegisterService(testService("alice", 20))
	cl := c.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))

	var gotErr error
	cl.Fetch("alice.family.name", "/", 10*time.Second,
		func(board int, resp *netstack.HTTPResponse, d sim.Duration, err error) {
			gotErr = err
		})
	c.RunAll()
	if !errors.Is(gotErr, ErrClusterFull) {
		t.Fatalf("err = %v, want ErrClusterFull", gotErr)
	}
	// One refusal, one query — no walking happened.
	if cl.ServFails != 1 || c.ServFails != 1 {
		t.Fatalf("servfails client=%d cluster=%d, want 1/1", cl.ServFails, c.ServFails)
	}
	totals := c.ServiceTotals()
	if len(totals) != 1 || totals[0].Refused != 1 {
		t.Fatalf("totals = %+v, want Refused=1", totals)
	}
}

func TestRepeatQueriesHitWarmReplica(t *testing.T) {
	c := testCluster(2)
	c.RegisterService(testService("alice", 20))
	cl := c.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))

	fetch := func() sim.Duration {
		var rt sim.Duration
		cl.Fetch("alice.family.name", "/", 10*time.Second,
			func(board int, resp *netstack.HTTPResponse, d sim.Duration, err error) {
				if err != nil {
					t.Fatal(err)
				}
				rt = d
			})
		c.RunAll()
		return rt
	}
	cold := fetch()
	warm := fetch()
	if c.Placed != 1 || c.WarmHits != 1 {
		t.Fatalf("placed=%d warmhits=%d, want 1/1", c.Placed, c.WarmHits)
	}
	if warm >= cold {
		t.Fatalf("warm fetch (%v) not faster than cold (%v)", warm, cold)
	}
	if warm > 50*time.Millisecond {
		t.Fatalf("warm fetch took %v, want a few ms", warm)
	}
}

// ---- warm pools ----

func TestMinWarmPrebootsReplicas(t *testing.T) {
	c := testCluster(3)
	e := c.RegisterService(testService("alice", 20), WithMinWarm(2))
	c.RunAll() // let the prewarm boots complete
	ready := 0
	for _, p := range e.Replicas {
		if p.Svc.State.Booted() {
			ready++
		}
	}
	if ready != 2 {
		t.Fatalf("ready replicas = %d, want 2", ready)
	}
	if c.Pools.Prewarms != 2 {
		t.Fatalf("prewarms = %d, want 2", c.Pools.Prewarms)
	}
	// A prewarmed service answers warm on the very first client query.
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
		t.Fatalf("warm hits = %d, want 1 (no cold start)", c.WarmHits)
	}
	if rt > 50*time.Millisecond {
		t.Fatalf("first fetch took %v, want warm-path ms", rt)
	}
	// Prewarms are launches but not cold starts in the aggregate view.
	tot := c.ServiceTotals()[0]
	if tot.Launches != 2 || tot.ColdStarts != 0 {
		t.Fatalf("launches=%d coldstarts=%d, want 2/0", tot.Launches, tot.ColdStarts)
	}
}

func TestEWMATargetFollowsArrivalRate(t *testing.T) {
	c := testCluster(4)
	e := c.RegisterService(testService("alice", 20))
	cl := c.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))

	// A steady 2/s arrival stream: the EWMA must settle near 2/s and the
	// pool must hold at least one warm replica.
	for i := 0; i < 20; i++ {
		at := sim.Duration(i) * 500 * time.Millisecond
		c.Eng().At(at, func() {
			cl.Fetch("alice.family.name", "/", 10*time.Second,
				func(int, *netstack.HTTPResponse, sim.Duration, error) {})
		})
	}
	c.RunAll()
	if e.rate < 1.0 || e.rate > 4.0 {
		t.Fatalf("EWMA rate = %.2f/s, want ≈2/s", e.rate)
	}
	if e.WarmTarget < 1 {
		t.Fatalf("warm target = %d, want ≥1 while hot", e.WarmTarget)
	}
	ready := 0
	for _, p := range e.Replicas {
		if p.Svc.State.Booted() {
			ready++
		}
	}
	if ready < 1 {
		t.Fatal("no warm replica despite sustained traffic")
	}
}

func TestQuietServiceIsReclaimed(t *testing.T) {
	c := testCluster(2)
	e := c.RegisterService(testService("alice", 20), WithMinWarm(1))
	hot := c.RegisterService(testService("bob", 21))
	c.RunAll()

	// Drop alice's floor; she has no traffic, so her effective rate is 0
	// and the next reconcile (driven by bob's arrival) must reclaim her.
	e.MinWarm = 0
	cl := c.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	c.Eng().At(60*time.Second, func() {
		cl.Fetch("bob.family.name", "/", 10*time.Second,
			func(int, *netstack.HTTPResponse, sim.Duration, error) {})
	})
	c.RunAll()

	for _, p := range e.Replicas {
		if p.Svc.State != core.StateCold {
			t.Fatalf("alice replica on board %d still %v after reclaim", p.Board, p.Svc.State)
		}
	}
	if c.Pools.Reclaims != 1 {
		t.Fatalf("reclaims = %d, want 1", c.Pools.Reclaims)
	}
	tot := c.ServiceTotals()
	if tot[0].Reaps != 1 {
		t.Fatalf("alice reaps = %d, want 1", tot[0].Reaps)
	}
	_ = hot
}

func TestReclaimSparesJustPlacedReplica(t *testing.T) {
	// Two ready replicas but a pool target of 1: the reconcile pass that
	// follows a warm placement must reclaim the *other* replica, never
	// the one whose IP just went out in the DNS answer.
	c := testCluster(2)
	e := c.RegisterService(testService("alice", 20), WithMinWarm(2))
	c.RunAll() // both replicas ready
	e.MinWarm = 0
	e.rate = 0.05 // above MinRate: target decays to exactly 1
	e.arrivals = 1
	// Backdated so the query's EWMA update sees a ~20s gap (rate stays
	// ≈0.05/s) instead of a µs gap that would spike the target back up.
	e.lastArrival = c.Eng().Now() - 20*time.Second

	cl := c.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	var rt sim.Duration
	var servedBy int
	cl.Fetch("alice.family.name", "/", 10*time.Second,
		func(board int, resp *netstack.HTTPResponse, d sim.Duration, err error) {
			if err != nil {
				t.Fatal(err)
			}
			servedBy, rt = board, d
		})
	c.RunAll()
	if c.WarmHits != 1 {
		t.Fatalf("warm hits = %d, want 1", c.WarmHits)
	}
	if rt > 50*time.Millisecond {
		t.Fatalf("fetch took %v: the answered replica was reclaimed mid-flight", rt)
	}
	if c.Pools.Reclaims != 1 {
		t.Fatalf("reclaims = %d, want 1 (the spare replica)", c.Pools.Reclaims)
	}
	if !e.Replicas[servedBy].Svc.State.Booted() {
		t.Fatalf("serving replica on board %d is %v", servedBy, e.Replicas[servedBy].Svc.State)
	}
}

// ---- aggregation ----

func TestCounterAggregationAcrossBoards(t *testing.T) {
	c := testCluster(2)
	c.Boards[0].Hyp.TotalMemMiB = 8 // force placements onto board 1
	c.RegisterService(testService("alice", 20))
	cl := c.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	for i := 0; i < 3; i++ {
		cl.Fetch("alice.family.name", "/", 10*time.Second,
			func(int, *netstack.HTTPResponse, sim.Duration, error) {})
		c.RunAll()
	}
	tot := c.ServiceTotals()[0]
	if tot.Launches != 1 || tot.ColdStarts != 1 {
		t.Fatalf("launches=%d coldstarts=%d, want 1/1", tot.Launches, tot.ColdStarts)
	}
	if tot.Ready != 1 {
		t.Fatalf("ready = %d, want 1", tot.Ready)
	}
	tab := c.CounterTable()
	if len(tab.Rows) != 2 { // one service + TOTAL
		t.Fatalf("table rows = %d, want 2", len(tab.Rows))
	}
}

func TestReplicaIPsIdentifyBoards(t *testing.T) {
	c := testCluster(3)
	c.RegisterService(testService("alice", 20))
	for i := 0; i < 3; i++ {
		want := netstack.IPv4(10, 0, byte(100+i), 20)
		p, ok := c.Directory().byIP[want]
		if !ok || p.Board != i {
			t.Fatalf("replica IP %v not mapped to board %d", want, i)
		}
	}
}

func TestShrinkDiskFullFallsBackToEviction(t *testing.T) {
	// One board whose checkpoint store holds exactly one 4 MiB state:
	// the first reclaim demotes to disk, the second finds the store full
	// and must fall back to plain eviction rather than leak the replica.
	c := NewCluster(WithBoards(1), WithBoardOptions(core.WithDisk(blockdev.Config{
		SlotMiB: 4, Slots: 1,
		SeekTime: 6 * time.Millisecond, BytesPerSec: 40e6,
	})))
	ctl := c.API()
	ae := c.RegisterService(testService("alice", 20), WithMinWarm(1))
	c.RegisterService(testService("dave", 21))
	c.RegisterService(testService("carol", 22))
	c.RunAll() // alice prewarmed

	// Boot dave and park him on the single disk slot via the API verb.
	ctl.Activate(api.ActivateRequest{Name: "dave.family.name"})
	c.RunAll()
	if resp := ctl.Demote(api.DemoteRequest{Name: "dave.family.name"}); resp.Err != nil || resp.Demoted != 1 {
		t.Fatalf("demote dave -> %+v", resp)
	}
	c.RunAll()
	de := c.Directory().Lookup("dave.family.name")
	if de.Replicas[0].Svc.State != core.StateColdDisk {
		t.Fatalf("dave = %v, want cold-disk", de.Replicas[0].Svc.State)
	}
	demotionsBefore := c.Demotions

	// Drop alice's floor; carol's arrival drives the reconcile that
	// shrinks alice's pool. With the slot taken, the demotion returns
	// ErrDiskFull and the reclaim falls back to full eviction.
	ae.MinWarm = 0
	cl := c.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	c.Eng().At(60*time.Second, func() {
		cl.Fetch("carol.family.name", "/", 10*time.Second,
			func(int, *netstack.HTTPResponse, sim.Duration, error) {})
	})
	c.RunAll()

	if st := ae.Replicas[0].Svc.State; st != core.StateCold {
		t.Fatalf("alice = %v, want cold (evicted, not demoted)", st)
	}
	if c.Pools.Reclaims != 1 {
		t.Fatalf("reclaims = %d, want 1", c.Pools.Reclaims)
	}
	if c.Demotions != demotionsBefore {
		t.Fatalf("demotions moved %d -> %d; the full store must force eviction",
			demotionsBefore, c.Demotions)
	}
	// Dave's checkpoint survived the pressure untouched.
	if de.Replicas[0].Svc.State != core.StateColdDisk {
		t.Fatalf("dave = %v after reclaim, want cold-disk", de.Replicas[0].Svc.State)
	}
}

// TestPlacementCountsPromisedRead: a disk restore admitted on a board
// holds its memory from admission, though its domain is built only once
// the checkpoint is read. The placement views and the federation summary
// read the board's gate, so that memory is not free to them meanwhile.
func TestPlacementCountsPromisedRead(t *testing.T) {
	c := NewCluster(WithBoards(2), WithBoardOptions(core.WithDisk(blockdev.DefaultConfig())))
	e := c.RegisterService(testService("alice", 20))
	bob := c.RegisterService(testService("bob", 21))
	c.API().Activate(api.ActivateRequest{Name: e.Name})
	c.RunAll()
	on := readyOf(e)
	if on == nil {
		t.Fatal("setup: alice did not boot")
	}
	if resp := c.API().Demote(api.DemoteRequest{Name: e.Name}); resp.Err != nil {
		t.Fatalf("setup: demote: %v", resp.Err)
	}
	c.RunAll()
	if resp := c.API().Promote(api.PromoteRequest{Name: e.Name}); resp.Err != nil || resp.Board != on.Board {
		t.Fatalf("setup: promote: board %d, %v", resp.Board, resp.Err)
	}
	promised := e.Base.Image.MemMiB
	for _, v := range c.views(bob, nil) {
		want := c.Boards[v.Index].Hyp.FreeMemMiB()
		if v.Index == on.Board {
			want -= promised
		}
		if v.FreeMemMiB != want {
			t.Errorf("board %d's view reads %d MiB free, want %d", v.Index, v.FreeMemMiB, want)
		}
	}
	want := uint32(c.Boards[0].Hyp.FreeMemMiB() + c.Boards[1].Hyp.FreeMemMiB() - promised)
	if s := c.buildSummary(0, 1, c.eng.Now()); s.FreeMiB != want {
		t.Errorf("summary reads %d MiB free, want %d", s.FreeMiB, want)
	}
	c.RunAll()
	if !on.Svc.State.Booted() {
		t.Fatalf("board %d's replica is %v after the restore, want booted", on.Board, on.Svc.State)
	}
}
