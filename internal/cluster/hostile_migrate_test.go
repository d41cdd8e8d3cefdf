package cluster

import (
	"testing"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/blockdev"
	"jitsu/internal/core"
	"jitsu/internal/netsim"
)

// ---- migration under hostile management networks ----

// hostileLeaveCluster is a 3-board cluster with a replica on the leaving
// board 1, copied in 4 MiB chunks: one chunk for its checkpoint. The
// replica is warm, or for source "disk" demoted onto its board's disk
// tier; disks (or a disk source) gives every board a disk.
func hostileLeaveCluster(t *testing.T, source string, disks bool) *Cluster {
	t.Helper()
	opts := []Option{WithBoards(3), WithMigrateOnLeave(true), WithMgmtLink(0, 4)}
	if disks || source == "disk" {
		opts = append(opts, WithBoardOptions(core.WithDisk(blockdev.DefaultConfig())))
	}
	c := NewCluster(opts...)
	c.RegisterService(testService("alice", 20), WithMinWarm(2))
	c.RunAll()
	e := c.Directory().Lookup("alice.family.name")
	if replicaOn(e, 1) == nil || !e.Replicas[1].Svc.State.Booted() {
		t.Fatal("test setup: no warm replica on board 1")
	}
	if source == "disk" {
		if resp := c.API().Demote(api.DemoteRequest{Name: e.Name, Board: api.OnBoard(1)}); resp.Err != nil {
			t.Fatalf("test setup: demote on board 1: %v", resp.Err)
		}
		c.RunAll()
		if e.Replicas[1].Svc.State != core.StateColdDisk {
			t.Fatalf("test setup: board 1's replica is %v, want cold-disk", e.Replicas[1].Svc.State)
		}
	}
	return c
}

// sourceTiers are the tiers a leaving board's replica is evacuated
// from: both take the same move, with its retries and parking.
var sourceTiers = []string{"warm", "disk"}

func TestMigrationChunksAcknowledged(t *testing.T) {
	// Clean network: the pre-copy is a chunked exchange now — every
	// chunk datagram acked, none retransmitted.
	c := hostileLeaveCluster(t, "warm", false)
	left := false
	if err := c.Leave(1, func() { left = true }); err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if !left || c.Migrations != 1 {
		t.Fatalf("left=%v migrations=%d", left, c.Migrations)
	}
	e := c.Directory().Lookup("alice.family.name")
	state := e.Base.StateMiB // checkpoint size, not full image memory
	wantChunks := uint64((state + 3) / 4)
	if c.Chunks != wantChunks {
		t.Fatalf("chunks = %d, want %d for a %d MiB checkpoint in 4 MiB chunks",
			c.Chunks, wantChunks, state)
	}
	if c.ChunkRetx != 0 || c.XferAborts != 0 {
		t.Fatalf("clean link saw retx=%d aborts=%d", c.ChunkRetx, c.XferAborts)
	}
	checkClusterQuiescent(t, "after the leave", c)
}

// TestLeaveWaitsForMoveInFlight: an operator Migrate is moving board 1's
// replica when board 1 leaves. The evacuation joins that move instead of
// finishing at once and writing the replica off: it arrives, nothing is
// lost, and the board is out only once the source has drained.
func TestLeaveWaitsForMoveInFlight(t *testing.T) {
	c := hostileLeaveCluster(t, "warm", false)
	moved, drained, left := false, false, false
	resp := c.API().Migrate(api.MigrateRequest{Name: "alice.family.name", From: api.OnBoard(1),
		OnDone: func(ok bool) { moved, drained = ok, true }})
	if !resp.Started {
		t.Fatalf("Migrate from board 1: %v", resp.Err)
	}
	if err := c.Leave(1, func() {
		if !drained {
			t.Error("board 1 left before the move's drain")
		}
		left = true
	}); err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if !left || !moved || c.Migrations != 1 || c.Lost != 0 {
		t.Fatalf("left=%v moved=%v migrations=%d lost=%d, want true/true/1/0", left, moved, c.Migrations, c.Lost)
	}
	checkClusterQuiescent(t, "after the leave", c)
}

// TestMigratedSourceServesAgain: once a migrated-out source has drained
// and stopped, its slot is an ordinary cold slot again. A later boot
// there is a replica the directory answers with and the pool counts —
// never a warm VM that readyCount misses.
func TestMigratedSourceServesAgain(t *testing.T) {
	c := hostileLeaveCluster(t, "warm", false)
	if resp := c.API().Migrate(api.MigrateRequest{Name: "alice.family.name", From: api.OnBoard(1)}); !resp.Started {
		t.Fatalf("Migrate from board 1: %v", resp.Err)
	}
	c.RunAll()
	e := c.Directory().Lookup("alice.family.name")
	for _, p := range e.Replicas {
		c.Boards[p.Board].Jitsu.Evict(p.Svc)
	}
	for range 3 {
		c.API().Activate(api.ActivateRequest{Name: e.Name})
		c.RunAll()
	}
	booted := 0
	for _, p := range e.Replicas {
		if p.Svc.State.Booted() {
			booted++
		}
	}
	if booted != e.readyCount() {
		t.Fatalf("%d replicas booted, readyCount %d (board 1's slot %v, ready %v)",
			booted, e.readyCount(), e.Replicas[1].Svc.State, e.Replicas[1].ready())
	}
	checkClusterQuiescent(t, "after the activations", c)
}

// TestDiskEvacuationLandingRefused: a disk-resident replica is evacuated
// from leaving board 1 to board 2's cold slot, which a stray client boots
// while the checkpoint is on the wire, so the landing is refused. The
// move gives its slots back once, parks the checkpoint or writes the
// replica off, and the board still leaves.
func TestDiskEvacuationLandingRefused(t *testing.T) {
	c := hostileLeaveCluster(t, "disk", false)
	e := c.Directory().Lookup("alice.family.name")
	left := false
	if err := c.Leave(1, func() { left = true }); err != nil {
		t.Fatal(err)
	}
	dst := e.Replicas[2]
	if !dst.in(slotReserved) || dst.Svc.State != core.StateCold {
		t.Fatalf("setup: board 2's slot is %s and %v, want a reserved cold destination", dst.state, dst.Svc.State)
	}
	if err := c.Boards[2].Jitsu.Activate(dst.Svc, true, nil); err != nil {
		t.Fatalf("setup: boot on board 2: %v", err)
	}
	c.RunAll()
	if !left || c.Migrations != 0 || c.Parks+c.Lost != 1 {
		t.Fatalf("left=%v migrations=%d parks=%d lost=%d, want true/0 and one park or loss",
			left, c.Migrations, c.Parks, c.Lost)
	}
	checkClusterQuiescent(t, "after the leave", c)
}

// TestStoppedDrainingSlotIsNoDestination: a migrated-out source that is
// stopped while it drains (the idle reaper takes it once no answer names
// it) is cold but still draining. A move back to its board is refused,
// pinned there or picked, rather than reserving that slot.
func TestStoppedDrainingSlotIsNoDestination(t *testing.T) {
	c := hostileLeaveCluster(t, "warm", false)
	e := c.Directory().Lookup("alice.family.name")
	src := e.Replicas[1]
	src.lastAnswered = c.eng.Now() // a client was just answered: the source drains
	if resp := c.API().Migrate(api.MigrateRequest{Name: e.Name, From: api.OnBoard(1), To: api.OnBoard(2)}); !resp.Started {
		t.Fatalf("Migrate 1→2: %v", resp.Err)
	}
	for i := 0; !src.in(slotDraining); i++ {
		if i == 1000 {
			t.Fatalf("board 1's slot never drained: %s", src.state)
		}
		c.RunUntil(c.eng.Now() + 10*time.Millisecond)
	}
	c.Boards[1].Jitsu.Evict(src.Svc)
	for _, to := range []api.BoardSel{api.OnBoard(1), api.AnyBoard} {
		if resp := c.API().Migrate(api.MigrateRequest{Name: e.Name, From: api.OnBoard(2), To: to}); resp.Started {
			t.Fatalf("Migrate from board 2 to %v started onto a stopped draining slot", to)
		}
	}
	c.RunAll()
	if !src.in(slotOpen) || c.Migrations != 1 {
		t.Fatalf("board 1's slot ends %s after %d migrations, want open after 1", src.state, c.Migrations)
	}
	checkClusterQuiescent(t, "after the drain", c)
}

// TestReservedSlotIsNoSource: a move's destination that a stray client
// boots during the copy is booted but still reserved. No second move
// starts from it, though board 3 has a cold slot to take one — not an
// operator Migrate, not a federation shed, not its board's evacuation,
// which waits for the move it belongs to and then moves what is left.
func TestReservedSlotIsNoSource(t *testing.T) {
	c := NewCluster(WithBoards(4), WithMigrateOnLeave(true), WithMgmtLink(0, 4))
	e := c.RegisterService(testService("alice", 20), WithMinWarm(2))
	c.RunAll()
	if !e.Replicas[1].ready() || e.Replicas[2].Svc.State != core.StateCold || e.Replicas[3].Svc.State != core.StateCold {
		t.Fatal("test setup: want a warm replica on board 1, boards 2 and 3 cold")
	}
	c.MgmtLink(1).Partition() // the copy out of board 1 stalls
	if resp := c.API().Migrate(api.MigrateRequest{Name: e.Name, From: api.OnBoard(1), To: api.OnBoard(2)}); !resp.Started {
		t.Fatalf("Migrate 1→2: %v", resp.Err)
	}
	dst := e.Replicas[2]
	if err := c.Boards[2].Jitsu.Activate(dst.Svc, true, nil); err != nil {
		t.Fatalf("setup: boot on board 2: %v", err)
	}
	c.RunUntil(c.eng.Now() + time.Second)
	if !dst.in(slotReserved) || !dst.ready() {
		t.Fatalf("setup: board 2's slot is %s and %v, want reserved and ready", dst.state, dst.Svc.State)
	}
	if resp := c.API().Migrate(api.MigrateRequest{Name: e.Name, From: api.OnBoard(2)}); resp.Started {
		t.Fatal("Migrate started from a reserved slot")
	}
	if resp := c.API().Demote(api.DemoteRequest{Name: e.Name, Board: api.OnBoard(2)}); resp.Err == nil {
		t.Fatal("Demote took a reserved slot")
	}
	if p := e.transferSource(false); p == dst {
		t.Fatal("the federation shed would move a reserved slot")
	}
	left := false
	if err := c.Leave(2, func() { left = true }); err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if !left || c.Migrations != 1 || c.Lost != 0 || !e.Replicas[3].ready() {
		t.Fatalf("left=%v migrations=%d lost=%d board 3 %v, want true/1/0 and board 3 ready",
			left, c.Migrations, c.Lost, e.Replicas[3].Svc.State)
	}
	checkClusterQuiescent(t, "after the leave", c)
}

// TestEvacuationRetryFollowsOverlappingMove: between an evacuation's
// aborted copy and its retry the source is given back, and an operator
// Migrate takes it. The retry follows that move rather than starting a
// second one from its source, and finds the state gone once it ends.
func TestEvacuationRetryFollowsOverlappingMove(t *testing.T) {
	c := hostileLeaveCluster(t, "warm", false)
	e := c.Directory().Lookup("alice.family.name")
	src := e.Replicas[1]
	link := c.MgmtLink(1)
	link.Partition()
	left := false
	if err := c.Leave(1, func() { left = true }); err != nil {
		t.Fatal(err)
	}
	// The first copy aborts at ≈ 68.45 s and the retry fires a second
	// later (see TestMigrationAbortsAndReschedulesOnPartition).
	c.RunUntil(69 * time.Second)
	if c.XferAborts != 1 || !src.in(slotOpen) {
		t.Fatalf("setup: %d aborts, board 1's slot %s; want 1 abort and the slot given back", c.XferAborts, src.state)
	}
	link.Heal()
	src.lastAnswered = c.eng.Now() // the operator's move drains past the retry
	if resp := c.API().Migrate(api.MigrateRequest{Name: e.Name, From: api.OnBoard(1)}); !resp.Started {
		t.Fatalf("Migrate from board 1: %v", resp.Err)
	}
	c.RunAll()
	if !left || c.Migrations != 1 || c.Lost != 0 {
		t.Fatalf("left=%v migrations=%d lost=%d, want true/1/0", left, c.Migrations, c.Lost)
	}
	checkClusterQuiescent(t, "after the leave", c)
}

func TestMigrationRetransmitsThroughLoss(t *testing.T) {
	// A lossy management uplink on the leaving board: chunks and acks
	// drop, the per-chunk retransmit recovers each one, and the replica
	// still arrives warm.
	c := hostileLeaveCluster(t, "warm", false)
	c.MgmtLink(1).Impair(netsim.Impairment{Loss: 0.2}, 31)

	left := false
	if err := c.Leave(1, func() { left = true }); err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if !left || c.Migrations != 1 || c.Lost != 0 {
		t.Fatalf("left=%v migrations=%d lost=%d, want true/1/0", left, c.Migrations, c.Lost)
	}
	if c.ChunkRetx == 0 {
		t.Fatal("20% loss produced no chunk retransmits")
	}
	e := c.Directory().Lookup("alice.family.name")
	if replicaOn(e, 2) == nil || !e.Replicas[2].Svc.State.Booted() {
		t.Fatal("replica did not arrive warm on board 2")
	}
	checkClusterQuiescent(t, "after the leave", c)
}

func TestMigrationLateAckAfterTimeoutSettlesWindowOnce(t *testing.T) {
	// Regression: link RTT far above the chunk RTO, no loss. Every
	// chunk's timer fires before its ack arrives, so the timeout path
	// returns the chunk's window (OnTimeout) and queues a re-Acquire —
	// and then the late ack lands while that re-Acquire is still
	// waiting. Exactly one of OnAck / the queued grant's Release may
	// settle the window: the old code let the ack call OnAck (a second
	// release) and the later grant retransmit the already-acked chunk,
	// leaking the granted bytes into the controller's in-flight account
	// forever and wedging every subsequent transfer on the uplink. The
	// 18 MiB state makes the last chunk 2 MiB, so the double release
	// clamps at zero instead of cancelling the leak arithmetically —
	// the leak survives to the end where the test can see it.
	c := NewCluster(WithBoards(3), WithMigrateOnLeave(true), WithMgmtLink(0, 4))
	svc := testService("alice", 20)
	svc.StateMiB = 18
	c.RegisterService(svc, WithMinWarm(2))
	c.RunAll()
	if e := c.Directory().Lookup("alice.family.name"); replicaOn(e, 1) == nil || !e.Replicas[1].Svc.State.Booted() {
		t.Fatal("test setup: no warm replica on board 1")
	}
	c.MgmtLink(1).Impair(netsim.Impairment{Latency: 30 * time.Millisecond}, 17)

	left := false
	if err := c.Leave(1, func() { left = true }); err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if !left || c.Migrations != 1 || c.Lost != 0 || c.XferAborts != 0 {
		t.Fatalf("left=%v migrations=%d lost=%d aborts=%d, want true/1/0/0",
			left, c.Migrations, c.Lost, c.XferAborts)
	}
	if c.ChunkRetx == 0 {
		t.Fatal("RTT above RTO produced no chunk timeouts — scenario not exercised")
	}
	// The transfer is long done: all granted window must be back and no
	// stale re-Acquire may still be queued on the source's controller.
	ctrl := c.members[1].agent.ctrl
	if ctrl == nil {
		t.Fatal("no congestion controller built for board 1")
	}
	if ctrl.InFlight() != 0 || ctrl.QueueLen() != 0 {
		t.Fatalf("controller leaked: inflight=%d queued=%d, want 0/0",
			ctrl.InFlight(), ctrl.QueueLen())
	}
	e := c.Directory().Lookup("alice.family.name")
	if replicaOn(e, 2) == nil || !e.Replicas[2].Svc.State.Booted() {
		t.Fatal("replica did not arrive warm on board 2")
	}
	checkClusterQuiescent(t, "after the leave", c)
}

func TestMigrationAbortsAndReschedulesOnPartition(t *testing.T) {
	// The mgmt link partitions mid-transfer: the chunk exchange starves,
	// the transfer aborts, and the mandatory evacuation reschedules.
	// After the heal the retry completes and the replica's state still
	// arrives — one abort, one migration, nothing lost — whether it left
	// warm or from its board's disk.
	for _, source := range sourceTiers {
		t.Run(source, func(t *testing.T) {
			c := hostileLeaveCluster(t, source, false)
			link := c.MgmtLink(1)

			left := false
			if err := c.Leave(1, func() { left = true }); err != nil {
				t.Fatal(err)
			}
			// Cut the link while the 4 MiB checkpoint's one chunk is on
			// the wire; heal between the abort and the rescheduled
			// attempt. Each timeout doubles the controller's RTO (from
			// chunkRTO; its 64·chunkRTO = 3.2 s cap is not reached) and
			// the sender doubles it again per retry of the chunk, so try
			// k waits 50ms·4^(k-1) plus the chunk's 33.5 ms serialisation
			// allowance. The sixth and last try (chunkRetries = 5) goes
			// out at 50ms·(4^5-1)/3 + 5·33.5ms ≈ 17.2 s — a heal before
			// that lets it through and nothing aborts — and times out at
			// 50ms·(4^6-1)/3 + 6·33.5ms ≈ 68.45 s; the reschedule fires
			// migrateRetry's one second later, at ≈ 69.45 s. Healing at
			// 69 s also catches chunkRetries = 4 or chunkRTO = 20ms: the
			// first abort then lands early and the second attempt aborts
			// too, before the heal.
			c.eng.After(20*time.Millisecond, func() { link.Partition() })
			c.eng.After(69*time.Second, func() { link.Heal() })
			c.RunAll()

			if c.XferAborts != 1 {
				t.Fatalf("xfer aborts = %d, want 1", c.XferAborts)
			}
			if !left || c.Migrations != 1 || c.Lost != 0 {
				t.Fatalf("left=%v migrations=%d lost=%d, want true/1/0", left, c.Migrations, c.Lost)
			}
			e := c.Directory().Lookup("alice.family.name")
			p := replicaOn(e, 2)
			if p == nil || !p.Svc.State.Booted() {
				t.Fatal("replica did not arrive after the rescheduled attempt")
			}
			// A warm source restores on board 2; a disk one lands on its
			// disk, and the warm pool pages it in from there.
			if got := map[string]uint64{"warm": p.Svc.Restores, "disk": p.Svc.DiskRestores}[source]; got != 1 || p.Svc.ColdStarts != 0 {
				t.Fatalf("%s restores = %d, cold starts = %d, want 1/0", source, got, p.Svc.ColdStarts)
			}
			checkClusterQuiescent(t, "after the leave", c)
		})
	}
}

func TestMigrationGivesUpAfterAttemptBudget(t *testing.T) {
	// Permanent partition: every attempt aborts; after the budget the
	// replica is written off (the preempt baseline) and the departure
	// still completes — a dead management path must not wedge Leave.
	c := hostileLeaveCluster(t, "warm", false)
	c.MgmtLink(1).Partition()

	left := false
	if err := c.Leave(1, func() { left = true }); err != nil {
		t.Fatal(err)
	}
	c.RunAll()
	if !left {
		t.Fatal("leave wedged on a partitioned management link")
	}
	if c.XferAborts != 3 {
		t.Fatalf("xfer aborts = %d, want 3 (migrateRetry: three tries)", c.XferAborts)
	}
	if c.Migrations != 0 || c.Lost != 1 {
		t.Fatalf("migrations=%d lost=%d, want 0/1", c.Migrations, c.Lost)
	}
	if m := c.members[1]; m.State != MemberLeft {
		t.Fatalf("member state = %v, want left", m.State)
	}
	checkClusterQuiescent(t, "after the leave", c)
}

func TestMigrationParksCheckpointAfterAttemptBudget(t *testing.T) {
	// Same permanent partition as above, but the boards have disk tiers:
	// once the attempt budget is spent, the already-captured checkpoint
	// must be parked on a surviving board (the board API is in-process —
	// a wrecked management network cannot stop the hand-off) so the next
	// activation resumes it instead of cold-booting. A replica evacuated
	// from the leaving board's disk gets the same three tries and the
	// same parking as a warm one.
	for _, source := range sourceTiers {
		t.Run(source, func(t *testing.T) {
			c := hostileLeaveCluster(t, source, true)
			e := c.Directory().Lookup("alice.family.name")
			c.MgmtLink(1).Partition()

			left := false
			if err := c.Leave(1, func() { left = true }); err != nil {
				t.Fatal(err)
			}
			c.RunAll()
			if !left {
				t.Fatal("leave wedged on a partitioned management link")
			}
			if c.XferAborts != 3 {
				t.Fatalf("xfer aborts = %d, want 3 (migrateRetry: three tries)", c.XferAborts)
			}
			if c.Parks != 1 || c.Lost != 0 {
				t.Fatalf("parks=%d lost=%d, want 1/0 (checkpoint rescued)", c.Parks, c.Lost)
			}
			// The rescued state landed on a survivor and resumed from
			// disk: the warm-pool manager pages the parked checkpoint back
			// in (one disk restore), never a cold boot.
			resumed := false
			for i, p := range e.Replicas {
				if p == nil || i == 1 {
					continue
				}
				if p.Svc.ColdStarts != 0 {
					t.Fatalf("board %d cold-booted %d times, want 0", i, p.Svc.ColdStarts)
				}
				if p.Svc.DiskRestores == 1 || p.Svc.State == core.StateColdDisk {
					resumed = true
				}
			}
			if !resumed {
				t.Fatal("no survivor resumed from the parked checkpoint")
			}
			checkClusterQuiescent(t, "after the leave", c)
		})
	}
}
