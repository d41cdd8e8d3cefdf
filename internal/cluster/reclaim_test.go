package cluster

import (
	"errors"
	"testing"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/blockdev"
	"jitsu/internal/core"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// owe leaves svc's guest owing a client bytes, the way a replica looks
// just after it took a handed-off connection and answered it: a
// connection to a client on b's network carries a reply and a FIN that
// the client, its NIC down, has not acknowledged (FIN_WAIT_1). ack
// brings the client back, so the next retransmissions land.
func owe(t *testing.T, b *core.Board, svc *core.Service) (ack func()) {
	t.Helper()
	client := b.AddClient("owed", netstack.IPv4(10, 0, 0, 99))
	if _, err := client.ListenTCP(7, func(c *netstack.TCPConn) { c.OnData(func([]byte) {}) }); err != nil {
		t.Fatal(err)
	}
	conn := svc.Guest.Stack.DialTCP(client.IP, 7, nil)
	b.Eng.RunFor(50 * time.Millisecond)
	client.NIC.Down = true
	if err := conn.Send([]byte("HTTP/1.1 200 OK\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if !svc.Guest.Stack.Owes() {
		t.Fatal("setup: the guest owes the client nothing")
	}
	return func() { client.NIC.Down = false }
}

// TestReclaimersSpareOwedReplica drives each of the four reclaimers at a
// booted replica whose guest still owes a client its reply: every one
// must skip it, and take it once the client's ACK has landed.
func TestReclaimersSpareOwedReplica(t *testing.T) {
	disk := core.WithDisk(blockdev.Config{SlotMiB: 4, Slots: 4, SeekTime: 6 * time.Millisecond, BytesPerSec: 40e6})
	for _, row := range []struct {
		name string
		// arm boots the victim and returns its board and the call that
		// runs the reclaimer once.
		arm func(t *testing.T) (b *core.Board, victim *core.Service, reclaim func())
	}{
		{"pool shrink", func(t *testing.T) (*core.Board, *core.Service, func()) {
			c := testCluster(1)
			e := c.RegisterService(testService("alice", 20), WithMinWarm(1))
			c.RunAll()
			e.MinWarm = 0
			return c.Boards[0], e.Replicas[0].Svc, func() { c.Pools.reconcileAll(nil) }
		}},
		{"preemption", func(t *testing.T) (*core.Board, *core.Service, func()) {
			// One image's worth of memory: bob, asked for, can only
			// take the board from alice, who has had no arrivals.
			c := NewCluster(WithBoards(1), WithBoardOptions(core.WithMemory(16)))
			e := c.RegisterService(testService("alice", 20), WithMinWarm(1))
			c.RegisterService(testService("bob", 21))
			c.RunUntil(10 * time.Second) // past the preemption hysteresis
			return c.Boards[0], e.Replicas[0].Svc, func() {
				c.API().Activate(api.ActivateRequest{Name: "bob.family.name"})
			}
		}},
		{"demote for room", func(t *testing.T) (*core.Board, *core.Service, func()) {
			b := core.New(core.WithMemory(16), disk)
			alice := b.Jitsu.Register(testService("alice", 20))
			bob := b.Jitsu.Register(testService("bob", 21))
			b.Jitsu.Activate(alice, true, nil)
			b.Eng.RunFor(time.Second)
			return b, alice, func() { b.Jitsu.Activate(bob, true, nil) }
		}},
		{"idle reaper", func(t *testing.T) (*core.Board, *core.Service, func()) {
			b := core.New()
			cfg := testService("alice", 20)
			cfg.IdleTimeout = 2 * time.Second
			alice := b.Jitsu.Register(cfg)
			b.Jitsu.Activate(alice, true, nil)
			b.Eng.RunFor(time.Second)
			return b, alice, func() { b.Eng.RunFor(3 * time.Second) }
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			b, victim, reclaim := row.arm(t)
			if !victim.State.Booted() {
				t.Fatalf("setup: victim %v", victim.State)
			}
			ack := owe(t, b, victim)
			reclaim()
			if !victim.State.Booted() {
				t.Fatalf("reclaimed to %v while its guest owed a client bytes", victim.State)
			}
			ack()
			b.Eng.RunFor(10 * time.Second)
			if victim.State.Booted() && !victim.Guest.Stack.Owes() {
				reclaim()
			}
			if victim.State.Booted() {
				t.Fatalf("still %v after the client acknowledged (owes %v)", victim.State, victim.Guest.Stack.Owes())
			}
		})
	}
	// A client that sent its request with window 0 and never reopened
	// it: the reply waits in the guest's queue with no timer to end the
	// wait, so it must not hold the replica past the idle timeout.
	t.Run("idle reaper, zero window never reopened", func(t *testing.T) {
		b := core.New()
		cfg := testService("alice", 20)
		cfg.IdleTimeout = 2 * time.Second
		alice := b.Jitsu.Register(cfg)
		b.Jitsu.Activate(alice, true, nil)
		b.Eng.RunFor(time.Second)
		g := alice.Guest.Stack
		conn, err := g.ImportTCB(&netstack.TCB{State: netstack.TCBStateEstablished,
			LocalIP: g.IP, LocalPort: 80, RemoteIP: netstack.IPv4(10, 0, 0, 99), RemotePort: 49152,
			ISS: 1, IRS: 1, SndNxt: 2, RcvNxt: 2, Window: 0})
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send([]byte("HTTP/1.1 200 OK\r\n\r\n")); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		b.Eng.RunFor(3 * time.Second)
		if alice.State.Booted() {
			t.Fatalf("still %v past the idle timeout with a reply held by a zero window", alice.State)
		}
	})
}

// TestPreemptTriesNextVictim pins preemption's victim loop: a victim the
// first choice cannot be — its guest owes a client bytes, or the
// preemptor's slot on its board is reserved — passes the preemption on
// to the next-coldest replica instead of ending it.
func TestPreemptTriesNextVictim(t *testing.T) {
	for _, row := range []struct {
		name   string
		boards int
		memMiB int
		// block makes alice, the coldest victim (ties go in name
		// order), one preemption cannot take.
		block func(t *testing.T, c *Cluster, alice *Placement, bob *Entry)
	}{
		{"coldest owes bytes", 1, 32, func(t *testing.T, c *Cluster, alice *Placement, _ *Entry) {
			owe(t, c.Boards[alice.Board], alice.Svc)
		}},
		{"preemptor's slot reserved on the coldest's board", 2, 16, func(t *testing.T, _ *Cluster, alice *Placement, bob *Entry) {
			bob.Replicas[alice.Board].to(slotReserved, nil)
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			c := NewCluster(WithBoards(row.boards), WithBoardOptions(core.WithMemory(row.memMiB)))
			a := c.RegisterService(testService("alice", 20), WithMinWarm(1))
			ca := c.RegisterService(testService("carol", 22), WithMinWarm(1))
			bob := c.RegisterService(testService("bob", 21))
			c.RunUntil(10 * time.Second) // past the preemption hysteresis
			alice, carol := readyOf(a), readyOf(ca)
			if alice == nil || carol == nil {
				t.Fatal("setup: alice and carol not both booted")
			}
			row.block(t, c, alice, bob)
			c.API().Activate(api.ActivateRequest{Name: "bob.family.name"})
			c.RunUntil(15 * time.Second)
			if !alice.Svc.State.Booted() || carol.Svc.State.Booted() {
				t.Fatalf("alice %v, carol %v: want alice kept and carol reclaimed", alice.Svc.State, carol.Svc.State)
			}
			if c.Preempts != 1 || bob.readyCount() != 1 {
				t.Fatalf("%d preemptions, bob ready on %d boards; want 1 and 1", c.Preempts, bob.readyCount())
			}
		})
	}
}

// TestPreemptedBootJoinsVictimDestroy: the replica a preemption boots
// is launching from the moment its victim is reclaimed, its launch
// joined on the victim's destroy. The client's SYN, which lands while
// that destroy still runs, joins the boot; it must not force a second
// launch that fails on the victim's memory and books a second cold
// start.
func TestPreemptedBootJoinsVictimDestroy(t *testing.T) {
	c := NewCluster(WithBoards(1), WithBoardOptions(core.WithMemory(16)))
	a := c.RegisterService(testService("alice", 20), WithMinWarm(1))
	bob := c.RegisterService(testService("bob", 21))
	c.RunUntil(10 * time.Second) // past the preemption hysteresis
	if readyOf(a) == nil {
		t.Fatal("setup: alice not booted")
	}
	fetchErr := errors.New("fetch never finished")
	c.NewClient("laptop", netstack.IPv4(10, 0, 0, 9)).Fetch("bob.family.name", "/", 10*time.Second,
		func(_ int, _ *netstack.HTTPResponse, _ sim.Duration, err error) { fetchErr = err })
	c.RunUntil(15 * time.Second)
	rep := readyOf(bob)
	if fetchErr != nil || c.Preempts != 1 || rep == nil {
		t.Fatalf("fetch: %v; %d preemptions; bob ready: %v", fetchErr, c.Preempts, rep != nil)
	}
	if rep.Svc.Launches != 1 || rep.Svc.ColdStarts != 1 {
		t.Fatalf("bob: %d launches, %d cold starts; want one of each", rep.Svc.Launches, rep.Svc.ColdStarts)
	}
}

// readyOf is e's one ready replica, or nil.
func readyOf(e *Entry) *Placement {
	if e.readyCount() != 1 {
		return nil
	}
	return e.readyAt(0)
}
