package netstack

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// refEphemeralPort is the allocator ephemeralPort replaced, kept as the
// reference: the next port, round the range, that no listener is bound
// to and no entry of the demux table holds — found by walking the whole
// table per candidate. It spins when the range is full, so the
// differential test never fills it.
func refEphemeralPort(h *Host, next uint16) uint16 {
	for {
		next++
		if next < 49152 {
			next = 49152
		}
		if _, ok := h.listeners[next]; ok {
			continue
		}
		inUse := false
		for k := range h.conns {
			if k.localPort == next {
				inUse = true
				break
			}
		}
		if !inUse {
			return next
		}
	}
}

// checkPortUse holds the use counts to a walk of the demux table.
func checkPortUse(t *testing.T, h *Host, step int) {
	t.Helper()
	want := map[uint16]int{}
	for k := range h.conns {
		if k.localPort >= ephemeralBase {
			want[k.localPort]++
		}
	}
	if len(want) != len(h.portUse) {
		t.Fatalf("step %d: %d ports counted, table walk finds %d", step, len(h.portUse), len(want))
	}
	for p, n := range want {
		if h.portUse[p] != n {
			t.Fatalf("step %d: port %d use count %d, table walk finds %d", step, p, h.portUse[p], n)
		}
	}
}

// TestEphemeralPortsMatchLinearScan drives seeded dial / close / abort /
// Forget / ImportTCB / listener / clock steps and holds every port
// handed out to the linear scan's answer, and the use counts to a walk
// of the table after every step.
func TestEphemeralPortsMatchLinearScan(t *testing.T) {
	eng, a, b, _ := twoHosts(7)
	rng := rand.New(rand.NewSource(7))
	b.ListenTCP(80, func(c *TCPConn) { c.Attach(testApp{closed: func(error) { c.Close() }}) })

	var open []*TCPConn // a's connections, any state short of forgotten
	take := func() *TCPConn {
		if len(open) == 0 {
			return nil
		}
		i := rng.Intn(len(open))
		c := open[i]
		open[i] = open[len(open)-1]
		open = open[:len(open)-1]
		return c
	}
	// Listeners inside the ephemeral range: a port is skipped while one
	// is bound to it, and the connections it accepted hold the port
	// after. One stays bound throughout, one comes and goes.
	const inRange = 49160
	accept := func(c *TCPConn) { open = append(open, c) }
	lis, _ := a.ListenTCP(inRange, accept)
	a.ListenTCP(inRange+40, accept)

	a.nextPort = 65500 // wrap-around within the first hundred dials
	dials := 0
	for step := 0; step < 10000; step++ {
		if step == 5000 {
			a.nextPort = 65530 // and a second wrap into ports now in TIME_WAIT
		}
		switch r := rng.Intn(100); {
		case r < 40:
			want := refEphemeralPort(a, a.nextPort)
			c := a.DialTCP(b.IP, 80, func(*TCPConn, error) {})
			if c.key.localPort != want || a.nextPort != want {
				t.Fatalf("step %d: dial got port %d (next %d), linear scan says %d",
					step, c.key.localPort, a.nextPort, want)
			}
			open = append(open, c)
			dials++
		case r < 55:
			if c := take(); c != nil {
				c.Close() // established ones reach TIME_WAIT and expire 2 s later
				open = append(open, c)
			}
		case r < 62:
			if c := take(); c != nil {
				c.Abort()
			}
		case r < 70:
			if c := take(); c != nil {
				c.Forget()
				if rng.Intn(2) == 0 {
					c.Forget() // a second drop must not release the port again
				}
				c.teardown(nil)
			}
		case r < 76:
			// An imported connection on an ephemeral port of a's; on a
			// taken tuple the import is refused and nothing changes.
			tcb := &TCB{State: TCBStateEstablished, LocalIP: a.IP, RemoteIP: b.IP, RemotePort: 80,
				LocalPort: uint16(ephemeralBase + rng.Intn(400))}
			if rng.Intn(4) == 0 {
				tcb.LocalPort = uint16(65536 - 1 - rng.Intn(40))
			}
			if c, err := a.ImportTCB(tcb); err == nil {
				open = append(open, c)
			}
		case r < 80:
			// A stale handle: forget a connection, let another take its
			// tuple, then drop the stale one again — the newcomer stays.
			if c := take(); c != nil {
				c.Forget()
				tcb := &TCB{State: TCBStateEstablished, LocalIP: c.key.localIP, LocalPort: c.key.localPort,
					RemoteIP: c.key.remoteIP, RemotePort: c.key.remotePort}
				if n, err := a.ImportTCB(tcb); err == nil {
					c.Forget()
					if a.conns[n.key] != n {
						t.Fatalf("step %d: stale Forget evicted the tuple's new owner", step)
					}
					open = append(open, n)
				}
			}
		case r < 84:
			b.DialTCP(a.IP, inRange, func(*TCPConn, error) {})
		case r < 86:
			if lis != nil {
				delete(a.listeners, inRange)
				lis = nil
			} else {
				lis, _ = a.ListenTCP(inRange, accept)
			}
		default:
			eng.RunFor(time.Duration(rng.Intn(400)) * time.Millisecond)
		}
		checkPortUse(t, a, step)
	}
	if dials < 3000 || a.nextPort > 60000 {
		t.Fatalf("stream too thin: %d dials, nextPort %d (no wrap?)", dials, a.nextPort)
	}
	for _, c := range open {
		c.Abort()
	}
	eng.Run()
	checkPortUse(t, a, -1)
	if len(a.conns) != 0 {
		t.Fatalf("%d connections left after every one was aborted and TIME_WAIT drained", len(a.conns))
	}
}

// TestDialFailsWhenEphemeralPortsExhausted fills the range: the dial
// must fail with ErrNoEphemeralPorts from an event (the scan it
// replaced span forever inside one), and a port that TIME_WAIT releases
// must be handed out again.
func TestDialFailsWhenEphemeralPortsExhausted(t *testing.T) {
	eng, a, b, _ := twoHosts(3)
	b.ListenTCP(80, func(c *TCPConn) { c.Attach(testApp{closed: func(error) { c.Close() }}) })
	// Hold every port but one with an imported connection (a listener
	// holds one of them instead)...
	const free, listening = 50000, 50001
	a.ListenTCP(listening, func(*TCPConn) {})
	for p := ephemeralBase; p < 1<<16; p++ {
		if p == free || p == listening {
			continue
		}
		tcb := &TCB{State: TCBStateEstablished, LocalIP: a.IP, LocalPort: uint16(p), RemoteIP: b.IP, RemotePort: 9}
		if _, err := a.ImportTCB(tcb); err != nil {
			t.Fatal(err)
		}
	}
	// ...and the last with a real one, closed into TIME_WAIT.
	var last *TCPConn
	a.DialTCP(b.IP, 80, func(c *TCPConn, err error) {
		if err != nil {
			t.Fatalf("dial on the last free port: %v", err)
		}
		last = c
		c.Close()
	})
	eng.RunFor(100 * time.Millisecond)
	if last == nil || last.key.localPort != free || last.state != StateTimeWait {
		t.Fatalf("last connection %+v, want port %d in TIME_WAIT", last, free)
	}

	var dialErr error
	calls := 0
	c := a.DialTCP(b.IP, 80, func(c *TCPConn, err error) { calls++; dialErr = err })
	if calls != 0 {
		t.Fatal("dial failure delivered inside DialTCP, not from an event")
	}
	if c.state != StateClosed || c.Send([]byte("x")) == nil {
		t.Fatalf("failed dial returned a usable connection (%v)", c.state)
	}
	sent := a.TxPackets
	eng.RunFor(0)
	if calls != 1 || !errors.Is(dialErr, ErrNoEphemeralPorts) {
		t.Fatalf("done called %d times with %v, want once with ErrNoEphemeralPorts", calls, dialErr)
	}
	if a.TxPackets != sent {
		t.Fatal("failed dial put a segment on the wire")
	}
	c.Abort()
	c.Close()

	eng.RunFor(timeWaitDelay)
	var got uint16
	a.DialTCP(b.IP, 80, func(c *TCPConn, err error) {
		if err == nil {
			_, got = c.LocalAddr()
		}
	})
	eng.RunFor(100 * time.Millisecond)
	if got != free {
		t.Fatalf("after TIME_WAIT expiry dial got port %d, want the released %d", got, free)
	}
}
