package cluster

import (
	"testing"
	"time"

	"jitsu/internal/netsim"
)

// ---- membership under hostile management networks ----

// probedCluster builds boards boards with the common failure-detector
// tuning for these tests; opts apply on top.
func probedCluster(boards int, opts ...Option) *Cluster {
	return NewCluster(append([]Option{WithBoards(boards),
		WithProbing(500*time.Millisecond, 200*time.Millisecond, 3*time.Second)}, opts...)...)
}

func TestAsymmetricFailureDeafBoardConfirmed(t *testing.T) {
	// One-way failure, deaf side: board 1 can still transmit but hears
	// nothing (its bridge->NIC direction is cut). It cannot ack probes —
	// direct or relayed — and it never hears the suspicion rumor, so it
	// cannot refute. The detector must confirm it dead: a member that
	// cannot receive is genuinely unusable, indirection or not.
	c := probedCluster(3)
	m := c.members[1]

	c.RunUntil(1 * time.Second)
	c.MgmtLink(1).PartitionBtoA()
	c.RunUntil(15 * time.Second)
	if m.State != MemberDead {
		t.Fatalf("deaf board state = %v, want dead", m.State)
	}
	if c.Confirms != 1 {
		t.Fatalf("confirms = %d, want 1", c.Confirms)
	}
	c.StopMembership()
	c.RunAll()
}

// TestPingsToADeafBoardExpire: the probes of a board that hears nothing
// and the pings relayed for them expire with their waits, so no agent
// ever awaits more pings than its cluster has boards; and StopMembership
// aborts what is in flight, after which no view changes.
func TestPingsToADeafBoardExpire(t *testing.T) {
	c := probedCluster(3)
	c.RunUntil(time.Second)
	c.MgmtLink(1).PartitionBtoA()
	most := 0
	for at := time.Second; at < 6*time.Second; at += 10 * time.Millisecond {
		c.RunUntil(at)
		for _, m := range c.members {
			most = max(most, m.agent.acks.Outstanding())
		}
	}
	if most == 0 || most > len(c.members) {
		t.Errorf("an agent awaited up to %d pings, want 1 to %d", most, len(c.members))
	}
	for stopped := false; !stopped; {
		c.RunUntil(c.eng.Now() + time.Millisecond)
		for _, m := range c.members {
			stopped = stopped || m.agent.acks.Outstanding() > 0
		}
	}
	c.StopMembership()
	suspects, confirms := c.Suspects, c.Confirms
	for _, m := range c.members {
		if n := m.agent.acks.Outstanding(); n != 0 {
			t.Errorf("board %d awaits %d pings after its agent stopped", m.ID, n)
		}
	}
	c.RunAll()
	if c.Suspects != suspects || c.Confirms != confirms {
		t.Errorf("stopped agents moved the views: suspects %d → %d, confirms %d → %d", suspects, c.Suspects, confirms, c.Confirms)
	}
	checkClusterQuiescent(t, "after the run", c)
}

func TestAsymmetricFailureMuteBoardConfirmed(t *testing.T) {
	// One-way failure, mute side: board 1 hears everything but its
	// transmissions are lost (NIC->bridge cut). Probes reach it, acks
	// vanish; it hears the suspicion and refutes — but the refutation
	// cannot leave the board. Suspect must stand and confirm.
	c := probedCluster(3)
	m := c.members[1]

	c.RunUntil(1 * time.Second)
	c.MgmtLink(1).PartitionAtoB()
	c.RunUntil(15 * time.Second)
	if m.State != MemberDead {
		t.Fatalf("mute board state = %v, want dead", m.State)
	}
	// The board did try to refute (it heard the rumor) — the refutation
	// just never escaped its cut uplink.
	if c.Refutes == 0 {
		t.Fatal("mute board never heard the suspicion it should refute")
	}
	if c.Confirms != 1 {
		t.Fatalf("confirms = %d, want 1", c.Confirms)
	}
	c.StopMembership()
	c.RunAll()
}

func TestIndirectProbesAvertFalseConfirms(t *testing.T) {
	// A lossy (not dead) probe path: board 0's uplink drops half of
	// everything. Direct probes from board 0 often lose the ping or the
	// ack and would turn peers suspect; the ping-req round gives each
	// detection another independent path through a relay. The ablation
	// (IndirectProbes=0) must show strictly more suspicion flaps, and
	// the hardened run must avert at least some of them via indirect
	// acks. Both runs are fully seeded and deterministic.
	run := func(indirect int) *Cluster {
		c := probedCluster(4, WithIndirectProbes(indirect))
		c.RunUntil(500 * time.Millisecond) // settle before the weather turns
		c.MgmtLink(0).Impair(netsim.Impairment{Loss: 0.5}, 77)
		c.RunUntil(60 * time.Second)
		c.StopMembership()
		c.RunAll()
		return c
	}
	hardened := run(2)
	ablation := run(0)

	if hardened.PingReqs == 0 || hardened.IndirectAcks == 0 {
		t.Fatalf("indirection never engaged: pingreqs=%d indirect_acks=%d",
			hardened.PingReqs, hardened.IndirectAcks)
	}
	if ablation.PingReqs != 0 {
		t.Fatalf("ablation sent %d ping-reqs", ablation.PingReqs)
	}
	if hardened.Suspects >= ablation.Suspects {
		t.Fatalf("suspects: hardened %d >= ablation %d — ping-req did not help",
			hardened.Suspects, ablation.Suspects)
	}
	if hardened.Confirms > ablation.Confirms {
		t.Fatalf("confirms: hardened %d > ablation %d", hardened.Confirms, ablation.Confirms)
	}
	checkClusterQuiescent(t, "hardened", hardened)
	checkClusterQuiescent(t, "ablation", ablation)
}

// Each probe's timeout is its own table entry's: with a timeout longer
// than the probe period several probes are out at once, and the one that
// expires must be the lost probe's, not the newest's.
func TestProbeTimeoutsFireInOrder(t *testing.T) {
	c := NewCluster(WithBoards(2),
		WithProbing(100*time.Millisecond, 250*time.Millisecond, 10*time.Second),
		WithIndirectProbes(0))
	// Once the view has settled, exactly board 0's probe at t = 1100 ms is
	// lost; those at 1200 and 1300 ms are acknowledged while its timeout
	// is still running.
	c.eng.At(1050*time.Millisecond, func() { c.MgmtLink(0).PartitionAtoB() })
	c.eng.At(1150*time.Millisecond, func() { c.MgmtLink(0).Heal() })
	a := c.members[0].agent
	c.RunUntil(1340 * time.Millisecond)
	// An acknowledged probe's timeout is cancelled, so the lost probe's
	// is the one still running.
	if n := a.acks.Outstanding(); n != 1 || a.view[1].State != MemberAlive {
		t.Fatalf("at 1340 ms: %d probes unacknowledged (timeouts running), board 1 %v; want 1, alive", n, a.view[1].State)
	}
	c.RunUntil(1360 * time.Millisecond)
	if n := a.acks.Outstanding(); a.view[1].State != MemberSuspect || n != 0 {
		t.Fatalf("at 1360 ms, 10 ms after the lost probe's timeout: board 1 %v, %d probes unacknowledged; want suspect, 0", a.view[1].State, n)
	}
	c.StopMembership()
	c.RunAll()
	checkClusterQuiescent(t, "after the run", c)
}
