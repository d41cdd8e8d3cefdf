package netstack

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"jitsu/internal/netsim"
	"jitsu/internal/sim"
)

// Every outgoing frame is rendered into the Host's one scratch buffer,
// so anything that outlives the send call must not alias it, and
// anything handed up from a received frame must stay readable for as
// long as the receiver keeps it.

// TestEncodeIntoMatchesEncode renders every header into a dirty buffer:
// a scratch frame holds the previous frame's bytes, so EncodeInto must
// write every byte Encode gets zeroed for free.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	src, dst := IPv4(10, 0, 0, 9), IPv4(10, 0, 0, 20)
	payload := []byte("an odd-length payload")
	dirty := func(n int) []byte { return bytes.Repeat([]byte{0xa5}, n) }

	eth := Ethernet{Dst: netsim.MACFor(2), Src: netsim.MACFor(1), EtherType: EtherTypeIPv4}
	want := eth.Encode(payload)
	got := dirty(len(want))
	copy(got[EthernetHeaderLen:], payload)
	eth.EncodeInto(got)
	if !bytes.Equal(got, want) {
		t.Errorf("ethernet\n got %x\nwant %x", got, want)
	}

	arp := ARPPacket{Op: ARPReply, SenderMAC: netsim.MACFor(1), SenderIP: src, TargetMAC: netsim.MACFor(2), TargetIP: dst}
	want, got = arp.Encode(), dirty(arpLen)
	arp.EncodeInto(got)
	if !bytes.Equal(got, want) {
		t.Errorf("arp\n got %x\nwant %x", got, want)
	}

	ip := IPv4Header{Protocol: ProtoUDP, Src: src, Dst: dst, ID: 7}
	want = ip.Encode(payload)
	got = dirty(len(want))
	copy(got[IPv4HeaderLen:], payload)
	ip.EncodeInto(got)
	if !bytes.Equal(got, want) {
		t.Errorf("ipv4\n got %x\nwant %x", got, want)
	}

	icmp := ICMPEcho{Type: ICMPEchoRequest, ID: 3, Seq: 4, Data: payload}
	want = icmp.Encode()
	got = dirty(len(want))
	icmp.EncodeInto(got)
	if !bytes.Equal(got, want) {
		t.Errorf("icmp\n got %x\nwant %x", got, want)
	}

	udp := UDPHeader{SrcPort: 5353, DstPort: 53}
	want = udp.Encode(src, dst, payload)
	got = dirty(len(want))
	udp.EncodeInto(got, src, dst, payload)
	if !bytes.Equal(got, want) {
		t.Errorf("udp\n got %x\nwant %x", got, want)
	}

	for _, mss := range []uint16{0, DefaultMSS} {
		seg := TCPSegment{SrcPort: 49153, DstPort: 80, Seq: 1, Ack: 2, Flags: FlagACK | FlagPSH, Window: tcpWindow, MSS: mss}
		want = seg.Encode(src, dst, payload)
		got = dirty(len(want))
		seg.EncodeInto(got, src, dst, payload)
		if !bytes.Equal(got, want) {
			t.Errorf("tcp mss=%d\n got %x\nwant %x", mss, got, want)
		}
	}
}

func TestUDPHandlerMayKeepPayload(t *testing.T) {
	eng, a, b, _ := twoHosts(1)
	var kept [][]byte
	b.BindUDP(7, func(_ IP, _ uint16, p []byte) {
		kept = append(kept, p)
		b.SendUDP(a.IP, 7, 9000, []byte("reply that reuses b's scratch"))
	})
	a.BindUDP(9000, func(IP, uint16, []byte) {})
	for i := 0; i < 4; i++ {
		a.SendUDP(b.IP, 9000, 7, []byte(fmt.Sprint("datagram ", i)))
	}
	eng.Run()
	for i, p := range kept {
		if want := fmt.Sprint("datagram ", i); string(p) != want {
			t.Fatalf("kept payload %d reads %q, want %q", i, p, want)
		}
	}
	if len(kept) != 4 {
		t.Fatalf("kept %d payloads, want 4", len(kept))
	}
}

func TestARPPendingAndLoopbackSurviveFollowingSend(t *testing.T) {
	eng, a, b, _ := twoHosts(1)
	var atA, atB []string
	a.BindUDP(9, func(_ IP, _ uint16, p []byte) { atA = append(atA, string(p)) })
	b.BindUDP(9, func(_ IP, _ uint16, p []byte) { atB = append(atB, string(p)) })
	// No ARP entry for b: both datagrams queue behind the resolution,
	// whose own request is rendered into the same scratch; the loopback
	// datagram between them waits out the stack's processing cost.
	a.SendUDP(b.IP, 9, 9, []byte("queued first"))
	a.SendUDP(a.IP, 9, 9, []byte("looped"))
	a.SendUDPBulk(b.IP, 9, 9, []byte("queued second, bulk"), 4096)
	a.Ping(b.IP, 32, time.Second, func(time.Duration, error) {})
	eng.Run()
	if got := fmt.Sprint(atB); got != "[queued first queued second, bulk]" {
		t.Fatalf("b received %s", got)
	}
	if got := fmt.Sprint(atA); got != "[looped]" {
		t.Fatalf("a received %s", got)
	}
}

// established returns a connection from a to b with the handshake done
// and b discarding what it receives.
func established(t *testing.T, seed int64) (client *TCPConn, run func()) {
	t.Helper()
	eng, a, b, _ := twoHosts(seed)
	b.ListenTCP(80, func(c *TCPConn) { c.OnData(func([]byte) {}) })
	a.DialTCP(b.IP, 80, func(c *TCPConn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		client = c
	})
	eng.Run()
	return client, eng.Run
}

// TestFramePathAllocs pins what a packet costs on the stack + fabric
// path, host -> link -> bridge -> link -> host.
func TestFramePathAllocs(t *testing.T) {
	eng, a, b, _ := twoHosts(1)
	b.BindUDP(7, func(IP, uint16, []byte) {})
	payload := make([]byte, 48)
	a.SendUDP(b.IP, 9000, 7, payload) // resolve ARP, fill the pools
	eng.Run()
	// One allocation: the sending NIC's copy.
	if n := testing.AllocsPerRun(200, func() {
		a.SendUDP(b.IP, 9000, 7, payload)
		eng.Run()
	}); n != 1 {
		t.Errorf("UDP datagram: %v allocs, want 1", n)
	}

	c, run := established(t, 2)
	data := make([]byte, 100)
	c.Send(data)
	run()
	// Three: the NIC's copy of the data segment, the receiver's copy
	// of the payload for the application, the NIC's copy of the ACK.
	if n := testing.AllocsPerRun(200, func() {
		c.Send(data)
		run()
	}); n > 3 {
		t.Errorf("TCP data segment + ACK: %v allocs, want <= 3", n)
	}
}

// timeWaitConns leaves n of a's connections to b in TIME_WAIT. The
// stacks charge no processing time, so all n get there together, well
// inside the 2 s the first of them stays.
func timeWaitConns(tb testing.TB, n int) (a, b *Host) {
	tb.Helper()
	eng := sim.New(5)
	br := netsim.NewBridge(eng, "xenbr0", 10*time.Microsecond)
	mk := func(id int) *Host {
		nic := netsim.NewNIC(eng, "nic", netsim.MACFor(id))
		br.ConnectNIC(nic, 20*time.Microsecond, 0)
		return NewHost(eng, "host", nic, IPv4(10, 0, 0, byte(id)), StackProfile{Name: "free"})
	}
	a, b = mk(1), mk(2)
	a.SeedARP(b.IP, b.NIC.Addr) // resolved even when n is 0
	b.ListenTCP(80, func(c *TCPConn) { c.OnClose(func(error) { c.Close() }) })
	for i := 0; i < n; i++ {
		a.DialTCP(b.IP, 80, func(c *TCPConn, err error) {
			if err != nil {
				tb.Fatal(err)
			}
			c.Close()
		})
	}
	eng.RunFor(time.Second)
	waiting := 0
	for _, c := range a.conns {
		if c.state == StateTimeWait {
			waiting++
		}
	}
	if waiting != n || len(a.conns) != n {
		tb.Fatalf("%d of %d connections in TIME_WAIT, want all %d", waiting, len(a.conns), n)
	}
	return a, b
}

// TestDialAllocsIndependentOfTimeWait holds a dial's cost to the same
// count beside 5 000 TIME_WAIT connections as beside none. The NIC is
// down so the measured op is the dial itself, not its SYN's journey.
func TestDialAllocsIndependentOfTimeWait(t *testing.T) {
	dial := func(n int) float64 {
		a, b := timeWaitConns(t, n)
		a.NIC.Down = true
		return testing.AllocsPerRun(500, func() {
			a.DialTCP(b.IP, 80, func(*TCPConn, error) {}).Abort()
		})
	}
	if none, many := dial(0), dial(5000); none != many {
		t.Fatalf("dial allocates %v beside no TIME_WAIT connections, %v beside 5000", none, many)
	}
}

// TestTimeWaitLetsGoOfTheFetch: a finished fetch leaves both ends in
// TIME_WAIT for 2 s, and a busy host holds thousands of those. They
// must pin neither the application's callbacks and buffers nor, through
// HTTPGet's OnClose, the caller of the fetch and its response.
func TestTimeWaitLetsGoOfTheFetch(t *testing.T) {
	eng, a, b, _ := twoHosts(1)
	if _, err := b.ServeHTTP(80, func(*HTTPRequest) *HTTPResponse {
		return &HTTPResponse{Status: 200, Body: []byte("ok")}
	}); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	func() {
		held := new([1 << 10]byte) // what the caller's callback closes over
		runtime.SetFinalizer(held, func(*[1 << 10]byte) { close(freed) })
		a.HTTPGet(b.IP, 80, "/", time.Second, func(r *HTTPResponse, _ sim.Duration, err error) {
			if err != nil || string(r.Body) != "ok" || held[0] != 0 {
				t.Errorf("fetch: %v, %v", r, err)
			}
		})
	}()
	eng.RunFor(time.Second)
	for _, h := range []*Host{a, b} {
		if len(h.conns) != 1 {
			t.Fatalf("%s holds %d connections, want the one in TIME_WAIT", h.Name, len(h.conns))
		}
		for _, c := range h.conns {
			if c.state != StateTimeWait || c.sndBuf != nil || c.onData != nil || c.onEstablished != nil {
				t.Errorf("%s: %v connection still holds its send buffer or callbacks", h.Name, c.state)
			}
		}
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			eng.Run() // the expiry still closes both ends
			if n := len(a.conns) + len(b.conns); n != 0 {
				t.Fatalf("%d connections left after TIME_WAIT", n)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a connection in TIME_WAIT still holds the fetch's caller")
}
