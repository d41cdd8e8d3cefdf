package cluster

import (
	"fmt"
	"testing"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/dns"
	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

func testFederation(clusters, boards int) *Federation {
	return NewFederation(
		WithClusters(clusters),
		WithMemberOptions(WithBoards(boards), WithSeed(42)),
	)
}

// fedFetch schedules one Fetch at virtual time at and records the
// outcome.
type fedOutcome struct {
	cluster, board int
	err            error
	done           bool
}

func fedFetch(f *Federation, fc *FedClient, at sim.Duration, name string) *fedOutcome {
	out := &fedOutcome{cluster: -2, board: -2}
	f.Eng().At(at, func() {
		fc.Fetch(name, "/", 20*time.Second, func(cluster, board int, _ *netstack.HTTPResponse, _ sim.Duration, err error) {
			out.cluster, out.board, out.err, out.done = cluster, board, err, true
		})
	})
	return out
}

// TestFederationResolutionTable walks the root's resolution states:
// summary-scan + delegation on first contact, delegation-cache hit on
// repeat, immediate negative from the summary table for unknown names,
// negative-cache hit on repeat, and epoch invalidation when a later
// registration makes a cached negative stale.
func TestFederationResolutionTable(t *testing.T) {
	f := testFederation(2, 2)
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	home, _ := f.RegisterService(testService("alice", 20))
	if home.ID != 0 {
		t.Fatalf("alice homed on cluster %d, want 0 (least-loaded tie breaks low)", home.ID)
	}

	first := fedFetch(f, fc, 1*time.Second, "alice.family.name")
	repeat := fedFetch(f, fc, 2*time.Second, "alice.family.name")
	missA := fedFetch(f, fc, 3*time.Second, "ghost.family.name")
	missB := fedFetch(f, fc, 4*time.Second, "ghost.family.name")
	// Registering the name afterwards must invalidate the cached
	// negative via the summary epoch bump.
	f.Eng().At(5*time.Second, func() { f.RegisterService(testService("ghost", 21)) })
	late := fedFetch(f, fc, 6*time.Second, "ghost.family.name")
	f.RunAll()

	for i, out := range []*fedOutcome{first, repeat} {
		if !out.done || out.err != nil {
			t.Fatalf("fetch %d: done=%v err=%v", i, out.done, out.err)
		}
		if out.cluster != 0 {
			t.Errorf("fetch %d served by cluster %d, want 0", i, out.cluster)
		}
	}
	for i, out := range []*fedOutcome{missA, missB} {
		if !out.done || out.err == nil {
			t.Fatalf("miss %d: done=%v err=%v, want NXDomain error", i, out.done, out.err)
		}
	}
	if !late.done || late.err != nil {
		t.Fatalf("post-registration fetch: done=%v err=%v", late.done, late.err)
	}

	r := f.Root()
	if r.DelegHits == 0 {
		t.Error("repeat lookup did not hit the delegation cache")
	}
	if r.NegHits == 0 {
		t.Error("repeat miss did not hit the negative cache")
	}
	if r.NXDomains < 2 {
		t.Errorf("NXDomains = %d, want >= 2", r.NXDomains)
	}
	if fc.NXDomains != 2 {
		t.Errorf("client NXDomains = %d, want 2", fc.NXDomains)
	}
	if r.Delegations == 0 || r.Scans == 0 {
		t.Errorf("delegations=%d scans=%d, want both > 0", r.Delegations, r.Scans)
	}
	checkQuiescent(t, f, 2)
}

// TestFederationRootStateScalesWithClusters is the acceptance assert:
// the root directory holds one summary row per cluster no matter how
// many services register — per-service rows live only in the owning
// cluster's directory.
func TestFederationRootStateScalesWithClusters(t *testing.T) {
	f := testFederation(3, 2)
	for i := 0; i < 30; i++ {
		f.RegisterService(testService(fmt.Sprintf("svc%02d", i), byte(20+i)))
	}
	if got := f.Root().StateSize; got != 3 {
		t.Fatalf("root state size = %d after 30 services, want 3 (one row per cluster)", got)
	}
	for i := 30; i < 60; i++ {
		f.RegisterService(testService(fmt.Sprintf("svc%02d", i), byte(20+i)))
	}
	if got := f.Root().StateSize; got != 3 {
		t.Fatalf("root state size = %d after 60 services, want 3", got)
	}
	// The per-cluster directories do grow — that is where the rows live.
	total := 0
	for _, m := range f.Members() {
		total += len(m.Cluster.Directory().Entries())
	}
	if total != 60 {
		t.Fatalf("member directories hold %d entries, want 60", total)
	}
}

// TestFederationCrossClusterMigration moves a warm replica between
// clusters through the Checkpoint -> Transfer leg and checks the
// switchover: the destination restores (not cold-boots), resolution
// redirects with epoch invalidation of the stale delegation, and the
// source drains away.
func TestFederationCrossClusterMigration(t *testing.T) {
	f := testFederation(2, 2)
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	_, e := f.RegisterService(testService("alice", 20))

	// Warm alice up on its home cluster (and prime the root's
	// delegation cache with home = cluster 0).
	warm := fedFetch(f, fc, 1*time.Second, "alice.family.name")
	f.Eng().At(10*time.Second, func() {
		src := refReady(e)
		if len(src) == 0 {
			t.Error("no ready replica to migrate")
			return
		}
		f.members[0].agent.transferOut(e, src[0], f.members[1])
	})
	after := fedFetch(f, fc, 20*time.Second, "alice.family.name")
	f.RunAll()

	if !warm.done || warm.err != nil || warm.cluster != 0 {
		t.Fatalf("pre-migration fetch: done=%v err=%v cluster=%d", warm.done, warm.err, warm.cluster)
	}
	if !after.done || after.err != nil {
		t.Fatalf("post-migration fetch: done=%v err=%v", after.done, after.err)
	}
	if after.cluster != 1 {
		t.Errorf("post-migration fetch served by cluster %d, want 1", after.cluster)
	}
	if f.CrossMigrations != 1 {
		t.Errorf("CrossMigrations = %d, want 1", f.CrossMigrations)
	}
	// The replica arrived warm: a restore, not a cold boot, on cluster 1.
	restores := uint64(0)
	for _, tot := range f.members[1].Cluster.ServiceTotals() {
		restores += tot.Restores
	}
	if restores != 1 {
		t.Errorf("destination restores = %d, want 1 (warm transfer)", restores)
	}
	// The source cluster forgot the service and redirects.
	if f.members[0].Cluster.Directory().Lookup("alice.family.name") != nil {
		t.Error("source cluster still lists the migrated service")
	}
	if cid, ok := f.members[0].Cluster.movedTo["alice.family.name"]; !ok || cid != 1 {
		t.Errorf("source movedTo = (%d,%v), want (1,true)", cid, ok)
	}
}

// TestFederationMidTransferClusterLeave kills the destination cluster
// while the checkpoint copy is in flight: the transfer aborts, nothing
// is lost, and the source keeps serving.
func TestFederationMidTransferClusterLeave(t *testing.T) {
	f := testFederation(3, 2)
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	_, e := f.RegisterService(testService("alice", 20))

	warm := fedFetch(f, fc, 1*time.Second, "alice.family.name")
	f.Eng().At(10*time.Second, func() {
		src := refReady(e)
		if len(src) == 0 {
			t.Error("no ready replica to migrate")
			return
		}
		f.members[0].agent.transferOut(e, src[0], f.members[1])
	})
	// The 16 MiB checkpoint takes ~134ms across the 1 Gb/s federation
	// link; remove the destination 10ms into the copy.
	f.Eng().At(10*time.Second+10*time.Millisecond, func() {
		if err := f.RemoveCluster(1); err != nil {
			t.Errorf("RemoveCluster: %v", err)
		}
	})
	after := fedFetch(f, fc, 12*time.Second, "alice.family.name")
	f.RunAll()

	if !warm.done || warm.err != nil {
		t.Fatalf("pre-migration fetch: done=%v err=%v", warm.done, warm.err)
	}
	if !after.done || after.err != nil {
		t.Fatalf("post-leave fetch: done=%v err=%v", after.done, after.err)
	}
	if after.cluster != 0 {
		t.Errorf("post-leave fetch served by cluster %d, want the untouched source 0", after.cluster)
	}
	if f.CrossMigrations != 0 {
		t.Errorf("CrossMigrations = %d, want 0 (transfer aborted)", f.CrossMigrations)
	}
	if f.CrossAborts != 1 {
		t.Errorf("CrossAborts = %d, want 1", f.CrossAborts)
	}
	if e.moved {
		t.Error("source entry marked moved despite the aborted transfer")
	}
	if len(refReady(e)) == 0 {
		t.Error("source replica no longer ready after the aborted transfer")
	}
}

// TestFederationRemoveClusterMidResolution removes a member while a
// delegated query is still in flight to it: the root must fail the
// parked query over to the remaining candidates (or answer negative)
// instead of leaking the pending entry and letting the client ride out
// its full DNS timeout.
func TestFederationRemoveClusterMidResolution(t *testing.T) {
	f := testFederation(2, 2)
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	home, _ := f.RegisterService(testService("alice", 20))
	if home.ID != 0 {
		t.Fatalf("alice homed on %d, want 0", home.ID)
	}
	var elapsed sim.Duration
	done := false
	f.Eng().At(1*time.Second, func() {
		fc.Fetch("alice.family.name", "/", 30*time.Second,
			func(_, _ int, _ *netstack.HTTPResponse, d sim.Duration, err error) {
				elapsed, done = d, true
			})
	})
	// Land the removal inside the delegation round trip: the query takes
	// ~1.1ms to cross the front link and be delegated, and the agent's
	// reply another management round trip.
	f.Eng().At(1*time.Second+1200*time.Microsecond, func() {
		if err := f.RemoveCluster(0); err != nil {
			t.Errorf("RemoveCluster: %v", err)
		}
	})
	f.RunAll()
	if !done {
		t.Fatal("fetch never completed")
	}
	if f.Root().Delegations == 0 {
		t.Fatal("query was never delegated: the removal did not land mid-flight")
	}
	if elapsed >= 29*time.Second {
		t.Fatalf("fetch rode out the DNS timeout (%v): pending delegation leaked", elapsed)
	}
	checkQuiescent(t, f, 1) // above all: no pending delegation outlives the run
}

// TestFederationSpillOnRefuse exhausts a service's home cluster so the
// delegated query is refused, and checks the inter-cluster policy
// spills the service to a cluster with room — the client's query still
// succeeds, one cold start later.
func TestFederationSpillOnRefuse(t *testing.T) {
	f := NewFederation(
		WithClusters(2),
		WithMemberOptions(WithBoards(1), WithSeed(42), WithBoardOptions()),
	)
	// One board per cluster; two fat services homed on cluster 0 so the
	// second cannot fit once the first is resident.
	big := testService("alice", 20)
	big.Image.MemMiB = 500
	homeA, _ := f.RegisterService(big)
	big2 := testService("bob", 21)
	big2.Image.MemMiB = 500
	// placeHome now prefers cluster 1 (least loaded); force the
	// contended layout by registering directly on cluster 0.
	f.members[0].Cluster.RegisterService(f.namespaced(big2, 0))
	if homeA.ID != 0 {
		t.Fatalf("alice homed on %d, want 0", homeA.ID)
	}

	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	warmA := fedFetch(f, fc, 1*time.Second, "alice.family.name")
	spilled := fedFetch(f, fc, 10*time.Second, "bob.family.name")
	f.RunAll()

	if !warmA.done || warmA.err != nil || warmA.cluster != 0 {
		t.Fatalf("alice fetch: done=%v err=%v cluster=%d", warmA.done, warmA.err, warmA.cluster)
	}
	if !spilled.done || spilled.err != nil {
		t.Fatalf("bob fetch after spill: done=%v err=%v", spilled.done, spilled.err)
	}
	if spilled.cluster != 1 {
		t.Errorf("bob served by cluster %d, want spilled to 1", spilled.cluster)
	}
	if f.Spills != 1 {
		t.Errorf("Spills = %d, want 1", f.Spills)
	}
	if f.members[0].Cluster.Directory().Lookup("bob.family.name") != nil {
		t.Error("refusing cluster still lists the spilled service")
	}
	checkQuiescent(t, f, 2)
}

// TestFederationDelegationOffFastPath guards the zero-allocation DNS
// fast path on member boards: attaching the federation tier (whose root
// resolution is an async, allocating path by design) must not push
// allocations into a member board's per-query hot loop.
func TestFederationDelegationOffFastPath(t *testing.T) {
	f := testFederation(2, 2)
	_, e := f.RegisterService(testService("alice", 20))
	// Board 1 of cluster 0 serves its replica through the stock
	// dnsTrigger fast path (board 0 runs the cluster trigger, which is
	// slow-path by design).
	b := f.members[0].Cluster.Boards[1]
	svc := e.Replicas[1].Svc
	if err := b.Jitsu.Activate(svc, false, nil); err != nil {
		t.Fatal(err)
	}
	f.RunAll()
	q := &dns.Message{ID: 7, Questions: []dns.Question{
		{Name: svc.Cfg.Name, Type: dns.TypeA, Class: dns.ClassIN}}}
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	sink := func([]byte) {}
	b.DNS.ServeWire(wire, sink) // prime the answer cache
	allocs := testing.AllocsPerRun(200, func() {
		b.DNS.ServeWire(wire, sink)
	})
	if allocs != 0 {
		t.Fatalf("member-board fast path allocates %.1f per query under the federation", allocs)
	}
}

// TestFederationAddClusterRuntime grows the federation after
// construction: the new member must be delegated at the root, count as
// a placement target, and serve delegated queries like any
// construction-time cluster.
func TestFederationAddClusterRuntime(t *testing.T) {
	f := testFederation(1, 2)
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	home, _ := f.RegisterService(testService("alice", 20))
	if home.ID != 0 {
		t.Fatalf("alice homed on %d, want 0", home.ID)
	}
	m := f.AddCluster()
	if m.ID != 1 || len(f.Members()) != 2 {
		t.Fatalf("AddCluster: id=%d members=%d, want 1 and 2", m.ID, len(f.Members()))
	}
	// The next registration must home on the new, empty member.
	home2, _ := f.RegisterService(testService("bob", 21))
	if home2.ID != 1 {
		t.Fatalf("bob homed on %d, want the new cluster 1", home2.ID)
	}
	a := fedFetch(f, fc, 1*time.Second, "alice.family.name")
	b := fedFetch(f, fc, 2*time.Second, "bob.family.name")
	f.RunAll()
	if !a.done || a.err != nil || a.cluster != 0 {
		t.Fatalf("alice fetch: done=%v err=%v cluster=%d, want cluster 0", a.done, a.err, a.cluster)
	}
	if !b.done || b.err != nil || b.cluster != 1 {
		t.Fatalf("bob fetch: done=%v err=%v cluster=%d, want the added cluster 1", b.done, b.err, b.cluster)
	}
}

// TestFederationRemoveClusterWarmRehome removes a member whose service
// has live state: the re-homing must carry a checkpoint so the
// survivor's activation resumes it (a restore — onto its disk tier
// when it has one, warm in memory when diskless) instead of
// cold-booting.
func TestFederationRemoveClusterWarmRehome(t *testing.T) {
	f := testFederation(2, 2)
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	home, _ := f.RegisterService(testService("alice", 20))
	if home.ID != 0 {
		t.Fatalf("alice homed on %d, want 0", home.ID)
	}
	warm := fedFetch(f, fc, 1*time.Second, "alice.family.name")
	f.Eng().At(10*time.Second, func() {
		if err := f.RemoveCluster(0); err != nil {
			t.Errorf("RemoveCluster: %v", err)
		}
		if f.members[1].Cluster.Directory().Lookup("alice.family.name") == nil {
			t.Error("survivor does not hold the re-homed service")
		}
	})
	after := fedFetch(f, fc, 12*time.Second, "alice.family.name")
	f.RunAll()
	if !warm.done || warm.err != nil {
		t.Fatalf("pre-removal fetch: done=%v err=%v", warm.done, warm.err)
	}
	if !after.done || after.err != nil {
		t.Fatalf("post-removal fetch: done=%v err=%v", after.done, after.err)
	}
	if after.cluster != 1 {
		t.Fatalf("post-removal fetch served by cluster %d, want the survivor 1", after.cluster)
	}
	found := false
	for _, tot := range f.members[1].Cluster.ServiceTotals() {
		if tot.Name != "alice.family.name" {
			continue
		}
		found = true
		if tot.Restores+tot.DiskRestores == 0 {
			t.Errorf("survivor activation paid no restore: warm state did not move")
		}
		if tot.ColdStarts != 0 {
			t.Errorf("survivor cold-booted %d times, want 0 (warm re-homing)", tot.ColdStarts)
		}
	}
	if !found {
		t.Error("survivor has no totals row for the re-homed service")
	}
}

// TestFederationPacedTransferChunks: a skew shed's checkpoint copy is a
// real acknowledged chunk exchange on the federation management
// network, paced by the sending agent's congestion controller, in the
// chunks the link calls for: 4 MiB on the LAN, 1 MiB under WithWAN,
// which also derives the root's delegation retransmit from the RTT.
// A WAN chunk serialises on both shaped agent links while the sender's
// allowance counts one, so every first flight there outlasts its timer;
// all but one ack land while the resend still queues for window, so the
// WAN arms pin four chunks plus one resend. The chunk counts catch
// xferLink handing either arm the other's chunk size; the WAN arms'
// retransmit pins catch a WithWAN that leaves the LAN's 5 ms timeout,
// drops the 100 ms floor (wan20ms: 3×RTT is 60 ms) or the 3×RTT term
// (wan50ms: 150 ms). The retry count equals the default, so only its
// value is pinned, not that WithWAN sets it.
func TestFederationPacedTransferChunks(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     []FedOption
		chunkMiB int
		resends  uint64
		delegRTO sim.Duration
	}{
		{"lan", nil, 4, 0, 5 * time.Millisecond},
		{"wan20ms", []FedOption{WithWAN(netsim.WAN20ms())}, 1, 1, 100 * time.Millisecond},
		{"wan50ms", []FedOption{WithWAN(netsim.WAN50ms())}, 1, 1, 150 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFederation(append([]FedOption{
				WithClusters(2), WithMemberOptions(WithBoards(2), WithSeed(42)),
			}, tc.opts...)...)
			if f.Cfg.delegate.Initial != tc.delegRTO || f.Cfg.delegate.Retries != 3 {
				t.Fatalf("delegation retry = %v × %d, want %v × 3",
					f.Cfg.delegate.Initial, f.Cfg.delegate.Retries, tc.delegRTO)
			}
			fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
			_, e := f.RegisterService(testService("alice", 20))
			warm := fedFetch(f, fc, 1*time.Second, "alice.family.name")
			f.Eng().At(10*time.Second, func() {
				src := refReady(e)
				if len(src) == 0 {
					t.Error("no ready replica to transfer")
					return
				}
				f.members[0].agent.transferOut(e, src[0], f.members[1])
			})
			f.RunAll()
			if !warm.done || warm.err != nil {
				t.Fatalf("warm fetch: done=%v err=%v", warm.done, warm.err)
			}
			if f.CrossMigrations != 1 {
				t.Fatalf("CrossMigrations = %d, want 1", f.CrossMigrations)
			}
			state := e.Base.StateMiB
			if want := uint64((state+tc.chunkMiB-1)/tc.chunkMiB) + tc.resends; f.FedChunks != want {
				t.Fatalf("FedChunks = %d, want %d for a %d MiB checkpoint in %d MiB chunks and %d resends",
					f.FedChunks, want, state, tc.chunkMiB, tc.resends)
			}
			if f.FedXferAborts != 0 || (tc.resends == 0 && f.FedChunkRetx != 0) {
				t.Fatalf("transfer paid retx=%d aborts=%d, want 0 aborts (and 0 retx on the LAN)", f.FedChunkRetx, f.FedXferAborts)
			}
			if f.members[0].agent.ctrl == nil {
				t.Fatal("sending agent never built its congestion controller")
			}
			if f.members[0].agent.ctrl.Acks == 0 {
				t.Fatal("controller saw no acks: chunks were not window-accounted")
			}
		})
	}
}

// TestTransferBackValidatesBeforeCuttingTheDrain: a service shed to
// another cluster is still draining at its old home when a transfer
// back arrives naming a policy that does not exist. The request is
// malformed and must be refused as it stands — the draining entry and
// the replica still serving its last connections stay untouched.
func TestTransferBackValidatesBeforeCuttingTheDrain(t *testing.T) {
	f := testFederation(2, 2)
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	cfg := testService("alice", 20)
	_, e := f.RegisterService(cfg)
	fedFetch(f, fc, 1*time.Second, "alice.family.name")
	f.Eng().At(10*time.Second, func() {
		f.members[0].agent.transferOut(e, refReady(e)[0], f.members[1])
	})
	home := f.members[0].Cluster
	probed := false
	var probe func()
	probe = func() {
		if !e.moved {
			f.Eng().After(10*time.Millisecond, probe)
			return
		}
		probed = true
		var draining *Placement
		for _, p := range e.Replicas {
			if p.in(slotDraining) {
				draining = p
			}
		}
		if draining == nil || !draining.Svc.State.Booted() {
			t.Fatal("the shed left no booted replica draining at the old home")
		}
		resp := home.API().Transfer(api.TransferRequest{Config: cfg, Policy: "nope"})
		if resp.Err == nil || resp.Err.Code != api.CodeBadRequest {
			t.Fatalf("transfer back with an unknown policy: %v, want %v", resp.Err, api.CodeBadRequest)
		}
		if home.dir.Lookup(cfg.Name) != e {
			t.Error("the refused transfer unregistered the draining entry")
		}
		if draining.state != slotDraining || !draining.Svc.State.Booted() {
			t.Errorf("the refused transfer tore down the draining replica (slot %s, state %v)", draining.state, draining.Svc.State)
		}
	}
	f.Eng().At(10*time.Second, probe)
	f.RunAll()
	if !probed {
		t.Fatal("the service never switched over")
	}
}

// TestLeaveWaitsForShed: a board leaves while the federation shed is
// moving its replica to another cluster. The evacuation joins the shed's
// move, which reports its end once the source has drained: the board is
// out after that, and nothing is lost.
func TestLeaveWaitsForShed(t *testing.T) {
	f := testFederation(2, 3)
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	_, e := f.RegisterService(testService("alice", 20), WithMinWarm(2))
	fedFetch(f, fc, time.Second, "alice.family.name")
	home := f.members[0].Cluster
	left, shed := false, false
	f.Eng().At(10*time.Second, func() {
		src := refReady(e)[len(refReady(e))-1]
		if src.Board == 0 {
			t.Fatal("test setup: alice is only on board 0, which cannot leave")
		}
		f.members[0].agent.transferOut(e, src, f.members[1])
		if err := home.Leave(src.Board, func() { left, shed = true, home.dir.Lookup(e.Name) != e }); err != nil {
			t.Fatal(err)
		}
	})
	f.RunAll()
	if !left || !shed || home.Lost != 0 || f.CrossMigrations != 1 {
		t.Fatalf("left=%v after shed=%v lost=%d cross migrations=%d, want true/true/0/1", left, shed, home.Lost, f.CrossMigrations)
	}
}

// A redirect (a cached delegation, a Moved reply, a completed spill)
// makes one cluster the query's whole candidate list, wherever the scan's
// list had got to.
func TestPendingResolveOnly(t *testing.T) {
	p := &pendingResolve{cands: []int{4, 5, 6}, idx: 2}
	p.only(7)
	if len(p.cands) != 1 || p.cands[0] != 7 || p.idx != 0 {
		t.Fatalf("after only(7): cands %v idx %d", p.cands, p.idx)
	}
	p.cands = append(p.cands, 8) // the inline array is clipped: growing copies out
	if p.one != [1]int{7} {
		t.Fatalf("appending to cands wrote through to %v", p.one)
	}
}

// The root's summary rows are updated where they lie: a push that moves
// no epoch still replaces the row's load and memory, and leaves every
// cached delegation alone; a push that moves it empties both caches.
func TestSummaryRowFollowsPushes(t *testing.T) {
	f := testFederation(2, 2)
	f.RegisterService(testService("alice", 20))
	f.RunAll()
	row, epoch := f.root.summaries[0], f.root.srv.Epoch
	s := f.members[0].agent.buildSummary()
	s.LoadMilli, s.FreeMiB = 4321, 17
	f.root.applySummary(s, false)
	if got := f.root.summaries[0]; got != row || got.LoadMilli != 4321 || got.FreeMiB != 17 {
		t.Fatalf("row after the push: %+v (same row: %v)", got, got == row)
	}
	if f.root.srv.Epoch != epoch {
		t.Fatalf("a push with an unmoved epoch bumped the root's from %d to %d", epoch, f.root.srv.Epoch)
	}
	f.root.cacheDelegation("alice.family.name", 0)
	f.root.neg["ghost.family.name"] = struct{}{}
	s.Epoch++
	f.root.applySummary(s, false)
	if f.root.srv.Epoch == epoch || f.root.summaries[0].Epoch != s.Epoch {
		t.Fatal("a moved directory epoch did not reach the root")
	}
	// The epoch bump is the caches' only invalidation: it empties both.
	if len(f.root.deleg) != 0 || len(f.root.neg) != 0 {
		t.Fatalf("after the epoch bump: deleg %v, neg %v, want both empty", f.root.deleg, f.root.neg)
	}
}

// fatPair registers two 500 MiB services directly on cluster 0, whose
// single board holds only one of them: once alice runs, bob's admission
// is refused cluster-wide.
func fatPair(f *Federation) {
	for i, name := range []string{"alice", "bob"} {
		sc := testService(name, byte(20+i))
		sc.Image.MemMiB = 500
		f.members[0].Cluster.RegisterService(f.namespaced(sc, 0))
	}
}

// TestFedRootCountersConserved drives each of the root's refusal and
// NXDOMAIN paths and checks that every refusal and every NXDOMAIN the
// root counts reaches a client as exactly one SERVFAIL or NXDOMAIN. The
// clients send a single datagram (zero Retry) over the lossless front
// network and wait 20 s, far past the root's 75 ms retransmit budget,
// so each client query is one decision of the root.
func TestFedRootCountersConserved(t *testing.T) {
	refusedBob := func(t *testing.T, f *Federation, fcs []*FedClient) {
		fatPair(f)
		fedFetch(f, fcs[0], 1*time.Second, "alice.family.name")
		fedFetch(f, fcs[1], 10*time.Second, "bob.family.name")
	}
	for _, tc := range []struct {
		name                 string
		opts                 []FedOption
		drive                func(t *testing.T, f *Federation, fcs []*FedClient)
		servfails, nxdomains uint64
		// drove reads the path's own footprint off the root.
		drove func(f *Federation, r *FedRootStats) bool
	}{
		{"delegation timeout", []FedOption{WithClusters(2), WithMemberOptions(WithBoards(2))},
			func(t *testing.T, f *Federation, fcs []*FedClient) {
				f.RegisterService(testService("alice", 20))
				link := f.members[0].MgmtLink()
				f.Eng().At(1*time.Second, link.Partition)
				fedFetch(f, fcs[0], 1100*time.Millisecond, "alice.family.name")
				f.Eng().At(2*time.Second, link.Heal)
				fedFetch(f, fcs[1], 3*time.Second, "alice.family.name")
			}, 1, 0, func(f *Federation, r *FedRootStats) bool { return r.DelegTimeouts == 1 }},
		{"admission refused, no spill", []FedOption{WithClusters(2), WithMemberOptions(WithBoards(1)), WithSpillOnRefuse(false)},
			refusedBob, 1, 0, func(f *Federation, r *FedRootStats) bool { return f.Spills == 0 }},
		{"spill with nowhere to go", []FedOption{WithClusters(1), WithMemberOptions(WithBoards(1))},
			refusedBob, 1, 0, func(f *Federation, r *FedRootStats) bool { return r.DelegTimeouts == 0 }},
		{"cluster removed under a parked spill", []FedOption{WithClusters(2), WithMemberOptions(WithBoards(1))},
			func(t *testing.T, f *Federation, fcs []*FedClient) {
				refusedBob(t, f, fcs)
				var poll func()
				poll = func() {
					// The root has filed a few dozen delegations by now.
					for qid := range uint32(256) {
						if p := f.root.pending.Get(qid); p != nil && p.spillTo >= 0 {
							if err := f.RemoveCluster(p.asked); err != nil {
								t.Error(err)
							}
							return
						}
					}
					if f.Eng().Now() > 11*time.Second {
						t.Error("no spill was ever parked at the root")
						return
					}
					f.Eng().After(50*time.Microsecond, poll)
				}
				f.Eng().At(10*time.Second, poll)
			}, 1, 0, func(f *Federation, r *FedRootStats) bool { return f.members[0].Left && f.Spills == 0 }},
		{"bloom miss, negative hit, false positive", []FedOption{WithClusters(1), WithMemberOptions(WithBoards(2))},
			func(t *testing.T, f *Federation, fcs []*FedClient) {
				for i := 0; i < 20; i++ {
					f.RegisterService(testService(fmt.Sprintf("svc%02d", i), byte(20+i)))
				}
				bloom := f.members[0].agent.buildSummary().Bloom
				miss, phantom := "", ""
				for i := 0; miss == "" || phantom == ""; i++ {
					name := fmt.Sprintf("ghost%d.family.name", i)
					if bloom.MayContain(name) {
						phantom = name
					} else if miss == "" {
						miss = name
					}
				}
				fedFetch(f, fcs[0], 1*time.Second, miss)
				fedFetch(f, fcs[1], 2*time.Second, miss)
				fedFetch(f, fcs[0], 3*time.Second, phantom)
			}, 0, 3, func(f *Federation, r *FedRootStats) bool { return r.NegHits == 1 && r.Delegations == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFederation(append([]FedOption{WithMemberOptions(WithSeed(42))}, tc.opts...)...)
			fcs := []*FedClient{
				f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9)),
				f.NewClient("phone", netstack.IPv4(10, 0, 0, 10)),
			}
			tc.drive(t, f, fcs)
			f.RunAll()
			r := f.Root()
			var servfails, nxdomains uint64
			for _, fc := range fcs {
				servfails += fc.ServFails
				nxdomains += fc.NXDomains
			}
			if r.ServFails != servfails || r.NXDomains != nxdomains {
				t.Fatalf("root counted %d SERVFAIL / %d NXDOMAIN, clients saw %d / %d",
					r.ServFails, r.NXDomains, servfails, nxdomains)
			}
			if r.ServFails != tc.servfails || r.NXDomains != tc.nxdomains {
				t.Fatalf("root counted %d SERVFAIL / %d NXDOMAIN, want %d / %d: the path was not driven",
					r.ServFails, r.NXDomains, tc.servfails, tc.nxdomains)
			}
			if !tc.drove(f, r) {
				t.Fatalf("the scenario's path left no footprint: %+v", *r)
			}
			checkQuiescent(t, f, len(fcs))
		})
	}
}

// TestMemberRemovalFailsOnlyItsDelegations: removing a member settles
// the delegations waiting on it, and only those — one parked on the
// other member keeps its retransmits and ends in its own timeout.
func TestMemberRemovalFailsOnlyItsDelegations(t *testing.T) {
	f := testFederation(2, 1)
	fc := f.NewClient("laptop", netstack.IPv4(10, 0, 0, 9))
	for i, name := range []string{"alice", "bob"} {
		if home, _ := f.RegisterService(testService(name, byte(20+i))); home.ID != i {
			t.Fatalf("%s homed on cluster %d, want %d", name, home.ID, i)
		}
	}
	for _, m := range f.members {
		f.Eng().At(time.Second, m.MgmtLink().Partition)
	}
	alice := fedFetch(f, fc, 1100*time.Millisecond, "alice.family.name")
	bob := fedFetch(f, fc, 1100*time.Millisecond, "bob.family.name")
	r := f.root
	var parked int
	f.Eng().At(1110*time.Millisecond, func() {
		parked = r.pending.Outstanding()
		if err := f.RemoveCluster(0); err != nil {
			t.Error(err)
		}
		if n := r.pending.Outstanding(); parked != 2 || n != 1 {
			t.Errorf("removing cluster 0 left %d of %d parked delegations, want 1 of 2", n, parked)
		}
	})
	f.RunAll()
	if !alice.done || !bob.done || alice.err == nil || bob.err == nil {
		t.Fatalf("alice %+v, bob %+v: want both fetches refused", *alice, *bob)
	}
	// alice's home left with her query parked on it and no candidate
	// after it: the name is being re-homed, not gone, so she is refused
	// and her name is not negative-cached.
	if fc.NXDomains != 0 || fc.ServFails != 2 || r.DelegTimeouts != 1 {
		t.Errorf("client saw %d NXDOMAIN, %d SERVFAIL; root %d delegation timeouts: want alice refused and bob's delegation timed out",
			fc.NXDomains, fc.ServFails, r.DelegTimeouts)
	}
	if _, ok := r.neg["alice.family.name"]; ok {
		t.Error("alice's name was negative-cached while her cluster was being removed")
	}
	checkQuiescent(t, f, 1)
}
