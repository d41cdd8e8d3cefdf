package netstack

import (
	"testing"
	"testing/quick"
	"time"

	"jitsu/internal/netsim"
	"jitsu/internal/sim"
)

// The stack is the component that faces "an unrelenting stream of
// security exploits" in Table 2's world; our version must be total:
// arbitrary garbage on the wire may be dropped but never panics and
// never corrupts live connections.

func TestStackSurvivesRandomFrames(t *testing.T) {
	eng, a, b, _ := twoHosts(99)
	b.ListenTCP(80, func(c *TCPConn) { c.OnData(func(d []byte) { c.Send(d) }) })
	f := func(frame []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("stack panicked on %x: %v", frame, r)
			}
		}()
		if len(frame) > netsim.MaxFrame {
			frame = frame[:netsim.MaxFrame]
		}
		b.NIC.Deliver(frame)
		eng.Run()
		_ = a
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

// mutateFrame builds a syntactically plausible but corrupted packet:
// valid Ethernet header, garbage protocol innards.
func TestStackSurvivesSemiValidFrames(t *testing.T) {
	eng, _, b, _ := twoHosts(98)
	b.ListenTCP(80, func(c *TCPConn) { c.OnData(func([]byte) {}) })
	f := func(etherType uint16, body []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic: %v", r)
			}
		}()
		if len(body) > 1400 {
			body = body[:1400]
		}
		eth := Ethernet{Dst: b.NIC.Addr, Src: netsim.MACFor(77), EtherType: etherType}
		b.NIC.Deliver(ethernetFrame(eth, body))
		eng.Run()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	// Force the interesting EtherTypes explicitly too.
	for _, et := range []uint16{EtherTypeARP, EtherTypeIPv4} {
		for n := 0; n < 200; n++ {
			body := make([]byte, n%64)
			for i := range body {
				body[i] = byte(n * 31 / (i + 1))
			}
			eth := Ethernet{Dst: b.NIC.Addr, Src: netsim.MACFor(77), EtherType: et}
			b.NIC.Deliver(ethernetFrame(eth, body))
		}
	}
	eng.Run()
}

func TestGarbageDoesNotDisturbLiveConnection(t *testing.T) {
	eng, a, b, _ := twoHosts(97)
	b.ListenTCP(80, func(c *TCPConn) { c.OnData(func(d []byte) { c.Send(d) }) })
	var echoed []byte
	var conn *TCPConn
	a.DialTCP(b.IP, 80, func(c *TCPConn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		conn = c
		c.OnData(func(d []byte) { echoed = append(echoed, d...) })
	})
	eng.Run()
	// Blast garbage at the server between two halves of an echo.
	conn.Send([]byte("first-"))
	eng.Run()
	rng := sim.New(5).Rand()
	for i := 0; i < 300; i++ {
		junk := make([]byte, rng.Intn(200))
		rng.Read(junk)
		b.NIC.Deliver(junk)
	}
	eng.Run()
	conn.Send([]byte("second"))
	eng.Run()
	if string(echoed) != "first-second" {
		t.Fatalf("echo = %q; garbage disturbed the stream", echoed)
	}
}

func TestForgedRSTRequiresValidTuple(t *testing.T) {
	// A RST for a different four-tuple must not kill a live connection.
	eng, a, b, _ := twoHosts(96)
	b.ListenTCP(80, func(c *TCPConn) { c.OnData(func([]byte) {}) })
	var conn *TCPConn
	a.DialTCP(b.IP, 80, func(c *TCPConn, err error) { conn = c })
	eng.Run()
	if conn.state != StateEstablished {
		t.Fatal("setup")
	}
	// Forge a RST from a wrong source port.
	forged := TCPSegment{SrcPort: 9999, DstPort: 80, Seq: 1, Flags: FlagRST}
	pkt := IPv4Header{Protocol: ProtoTCP, Src: a.IP, Dst: b.IP}
	eth := Ethernet{Dst: b.NIC.Addr, Src: a.NIC.Addr, EtherType: EtherTypeIPv4}
	b.NIC.Deliver(ethernetFrame(eth, ipv4Packet(pkt, tcpSegment(forged, a.IP, b.IP, nil))))
	eng.Run()
	// The server-side connection for the real tuple survives.
	_, lp := conn.LocalAddr()
	key := fourTuple{localIP: b.IP, remoteIP: a.IP, localPort: 80, remotePort: lp}
	if sc, ok := b.conns[key]; !ok || sc.state != StateEstablished {
		t.Fatal("forged RST killed an unrelated connection")
	}
}

func TestTimeWaitReclaimed(t *testing.T) {
	// Connections must leave the demux table after TIME_WAIT so a busy
	// client cannot leak state forever.
	eng, a, b, _ := twoHosts(95)
	b.ListenTCP(80, func(c *TCPConn) {
		c.OnData(func([]byte) {})
		c.Close() // server closes immediately
	})
	for i := 0; i < 20; i++ {
		a.DialTCP(b.IP, 80, func(c *TCPConn, err error) {
			if err != nil {
				return
			}
			c.Attach(testApp{closed: func(error) { c.Close() }})
		})
		eng.RunFor(time.Second)
	}
	eng.Run() // drain all TIME_WAITs
	if n := len(a.conns); n != 0 {
		t.Fatalf("%d client connections leaked", n)
	}
	if n := len(b.conns); n != 0 {
		t.Fatalf("%d server connections leaked", n)
	}
}
