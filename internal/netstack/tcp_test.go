package netstack

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"jitsu/internal/netsim"
	"jitsu/internal/sim"
)

// twoHosts wires two stacks through a bridge, like a client and a guest
// on the same edge network.
func twoHosts(seed int64) (*sim.Engine, *Host, *Host, *netsim.Bridge) {
	eng := sim.New(seed)
	br := netsim.NewBridge(eng, "xenbr0", 10*time.Microsecond)
	nicA := netsim.NewNIC(eng, "client", netsim.MACFor(1))
	nicB := netsim.NewNIC(eng, "server", netsim.MACFor(2))
	br.ConnectNIC(nicA, 150*time.Microsecond, 100e6)
	br.ConnectNIC(nicB, 20*time.Microsecond, 0)
	a := NewHost(eng, "client", nicA, IPv4(10, 0, 0, 9), LinuxNativeProfile())
	b := NewHost(eng, "server", nicB, IPv4(10, 0, 0, 20), MirageProfile())
	return eng, a, b, br
}

func TestARPResolution(t *testing.T) {
	eng, a, b, _ := twoHosts(1)
	var rtt sim.Duration
	var perr error
	a.Ping(b.IP, 56, 5*time.Second, func(d sim.Duration, err error) { rtt, perr = d, err })
	eng.Run()
	if perr != nil {
		t.Fatal(perr)
	}
	if rtt <= 0 || rtt > 5*time.Millisecond {
		t.Fatalf("ping rtt = %v", rtt)
	}
	// The caches are warm both ways now.
	if _, ok := a.arpCache[b.IP]; !ok {
		t.Fatal("client did not learn server MAC")
	}
	if _, ok := b.arpCache[a.IP]; !ok {
		t.Fatal("server did not learn client MAC (from request)")
	}
}

func TestPingRTTGrowsWithPayload(t *testing.T) {
	eng, a, b, _ := twoHosts(2)
	// Warm ARP so the first measurement doesn't pay the resolution RTT.
	a.Ping(b.IP, 8, time.Second, func(sim.Duration, error) {})
	eng.Run()
	var rtts []sim.Duration
	for _, size := range []int{56, 512, 1400} {
		size := size
		a.Ping(b.IP, size, 5*time.Second, func(d sim.Duration, err error) {
			if err != nil {
				t.Errorf("ping %d: %v", size, err)
			}
			rtts = append(rtts, d)
		})
		eng.Run()
	}
	if len(rtts) != 3 || rtts[0] >= rtts[1] || rtts[1] >= rtts[2] {
		t.Fatalf("rtts not increasing with payload: %v", rtts)
	}
}

func TestPingTimeout(t *testing.T) {
	eng, a, _, _ := twoHosts(3)
	var gotErr error
	a.Ping(IPv4(10, 0, 0, 99), 56, 2*time.Second, func(d sim.Duration, err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", gotErr)
	}
}

// TestPingSeqWraps: a ping's 16-bit seq wraps after 65535 pings, and
// the replies to pings on both sides of the wrap still find them.
func TestPingSeqWraps(t *testing.T) {
	eng, a, b, _ := twoHosts(5)
	for range 65534 {
		var e echo
		a.pings.Open(&e.req, &e)
		e.req.Settle()
	}
	var got []string
	for i := range 3 {
		a.Ping(b.IP, 8, time.Second, func(d sim.Duration, err error) { got = append(got, fmt.Sprint(i, err)) })
		if i == 0 {
			eng.Run()
		}
	}
	eng.Run()
	if want := []string{"0 <nil>", "1 <nil>", "2 <nil>"}; !slices.Equal(got, want) || a.lastPing != 65536 {
		t.Fatalf("pings across the seq wrap: %q, last id %d; want %q, 65536", got, a.lastPing, want)
	}
}

func TestPingSelf(t *testing.T) {
	eng, a, _, _ := twoHosts(4)
	var rtt sim.Duration
	a.Ping(a.IP, 56, time.Second, func(d sim.Duration, err error) {
		if err != nil {
			t.Error(err)
		}
		rtt = d
	})
	eng.Run()
	if rtt <= 0 || rtt > time.Millisecond {
		t.Fatalf("loopback rtt = %v", rtt)
	}
}

func TestUDPExchange(t *testing.T) {
	eng, a, b, _ := twoHosts(5)
	var got string
	var from IP
	if err := b.BindUDP(53, func(src IP, sport uint16, payload []byte) {
		got, from = string(payload), src
		b.SendUDP(src, 53, sport, []byte("pong"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.BindUDP(53, func(IP, uint16, []byte) {}); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("double bind = %v", err)
	}
	var reply string
	a.BindUDP(5353, func(src IP, sport uint16, payload []byte) { reply = string(payload) })
	a.SendUDP(b.IP, 5353, 53, []byte("ping"))
	eng.Run()
	if got != "ping" || from != a.IP || reply != "pong" {
		t.Fatalf("udp exchange: got=%q from=%v reply=%q", got, from, reply)
	}
}

func TestTCPHandshakeAndEcho(t *testing.T) {
	eng, a, b, _ := twoHosts(6)
	if _, err := b.ListenTCP(7, func(c *TCPConn) {
		c.OnData(func(data []byte) { c.Send(data) })
	}); err != nil {
		t.Fatal(err)
	}
	var echoed []byte
	a.DialTCP(b.IP, 7, func(c *TCPConn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if c.state != StateEstablished {
			t.Fatalf("dial state = %v", c.state)
		}
		c.OnData(func(data []byte) { echoed = append(echoed, data...) })
		c.Send([]byte("hello unikernel"))
	})
	eng.Run()
	if string(echoed) != "hello unikernel" {
		t.Fatalf("echoed %q", echoed)
	}
}

func TestTCPLargeTransferSegmentation(t *testing.T) {
	// 100 KiB crosses MSS segmentation and window-advance paths.
	eng, a, b, _ := twoHosts(7)
	payload := make([]byte, 100*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var received []byte
	done := false
	b.ListenTCP(9000, func(c *TCPConn) {
		c.Attach(testApp{
			data:   func(data []byte) { received = append(received, data...) },
			closed: func(error) { done = true; c.Close() },
		})
	})
	a.DialTCP(b.IP, 9000, func(c *TCPConn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		c.Send(payload)
		c.Close()
	})
	eng.Run()
	if !done {
		t.Fatal("server never saw close")
	}
	if !bytes.Equal(received, payload) {
		t.Fatalf("transfer corrupted: got %d bytes want %d", len(received), len(payload))
	}
}

func TestTCPOrderlyClose(t *testing.T) {
	eng, a, b, _ := twoHosts(8)
	var serverConn *TCPConn
	b.ListenTCP(80, func(c *TCPConn) {
		serverConn = c
		c.OnData(func([]byte) {})
	})
	var clientConn *TCPConn
	var clientClosed error = errors.New("unset")
	a.DialTCP(b.IP, 80, func(c *TCPConn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		clientConn = c
		c.Attach(testApp{closed: func(e error) { clientClosed = e }})
	})
	eng.RunFor(time.Second)
	// Server closes; client should see orderly close (nil), then close too.
	serverConn.Close()
	eng.RunFor(time.Second)
	if clientClosed != nil {
		t.Fatalf("client close err = %v, want nil", clientClosed)
	}
	if clientConn.state != StateCloseWait {
		t.Fatalf("client state = %v, want CLOSE_WAIT", clientConn.state)
	}
	clientConn.Close()
	eng.Run()
	if clientConn.state != StateClosed {
		t.Fatalf("client final state = %v", clientConn.state)
	}
	if serverConn.state != StateClosed {
		t.Fatalf("server final state = %v", serverConn.state)
	}
}

func TestTCPDialToClosedPortRST(t *testing.T) {
	eng, a, b, _ := twoHosts(9)
	_ = b
	var dialErr error
	a.DialTCP(b.IP, 81, func(c *TCPConn, err error) { dialErr = err })
	eng.Run()
	if !errors.Is(dialErr, ErrConnReset) {
		t.Fatalf("dial closed port = %v, want reset", dialErr)
	}
}

func TestTCPSynRetransmitWhenServerDown(t *testing.T) {
	// The Figure 9a failure mode: server NIC down at SYN time; the SYN
	// is lost and the client retransmits after 1s.
	eng, a, b, _ := twoHosts(10)
	b.ListenTCP(80, func(c *TCPConn) { c.OnData(func([]byte) {}) })
	// Pre-warm ARP so only the SYN is lost, not the ARP.
	a.Ping(b.IP, 8, time.Second, func(sim.Duration, error) {})
	eng.Run()
	b.NIC.Down = true
	start := eng.Now()
	var established sim.Duration
	var conn *TCPConn
	conn = a.DialTCP(b.IP, 80, func(c *TCPConn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		established = eng.Now() - start
	})
	// Server comes back 300ms later (a booting unikernel).
	eng.At(start+300*time.Millisecond, func() { b.NIC.Down = false })
	eng.Run()
	if established < time.Second {
		t.Fatalf("established after %v; SYN should have waited for the 1s retransmit", established)
	}
	if established > 1100*time.Millisecond {
		t.Fatalf("established after %v; first retransmit should have landed", established)
	}
	if conn.Retransmits == 0 {
		t.Fatal("no retransmissions recorded")
	}
}

func TestTCPRetransmitTimeoutAborts(t *testing.T) {
	eng, a, b, _ := twoHosts(11)
	a.Ping(b.IP, 8, time.Second, func(sim.Duration, error) {})
	eng.Run()
	b.NIC.Down = true // and never comes back
	var dialErr error
	a.DialTCP(b.IP, 80, func(c *TCPConn, err error) { dialErr = err })
	eng.Run()
	if !errors.Is(dialErr, ErrTimeout) {
		t.Fatalf("err = %v, want timeout after max retries", dialErr)
	}
}

func TestTCPAbortSendsRST(t *testing.T) {
	eng, a, b, _ := twoHosts(12)
	var serverConn *TCPConn
	b.ListenTCP(80, func(c *TCPConn) { serverConn = c; c.OnData(func([]byte) {}) })
	var clientConn *TCPConn
	var serverErr error = errors.New("unset")
	a.DialTCP(b.IP, 80, func(c *TCPConn, err error) { clientConn = c })
	eng.RunFor(time.Second)
	serverConn.Attach(testApp{closed: func(e error) { serverErr = e }})
	clientConn.Abort()
	eng.Run()
	if !errors.Is(serverErr, ErrConnReset) {
		t.Fatalf("server close err = %v, want reset", serverErr)
	}
}

func TestTCPDataBeforeOnDataIsBuffered(t *testing.T) {
	eng, a, b, _ := twoHosts(13)
	var conn *TCPConn
	b.ListenTCP(80, func(c *TCPConn) { conn = c }) // no OnData yet
	a.DialTCP(b.IP, 80, func(c *TCPConn, err error) {
		c.Send([]byte("early data"))
	})
	eng.Run()
	var got []byte
	conn.OnData(func(b []byte) { got = append(got, b...) })
	if string(got) != "early data" {
		t.Fatalf("buffered delivery got %q", got)
	}
}

func TestTCBHandoffBetweenStacks(t *testing.T) {
	// The Synjitsu core move: a proxy stack completes the handshake and
	// buffers client data; the connection is serialised, imported into a
	// second stack with the same IP, and the client's next bytes flow to
	// the new stack seamlessly.
	eng := sim.New(20)
	br := netsim.NewBridge(eng, "xenbr0", 10*time.Microsecond)
	serviceIP := IPv4(10, 0, 0, 20)

	nicClient := netsim.NewNIC(eng, "client", netsim.MACFor(1))
	br.ConnectNIC(nicClient, 150*time.Microsecond, 0)
	client := NewHost(eng, "client", nicClient, IPv4(10, 0, 0, 9), LinuxNativeProfile())

	nicProxy := netsim.NewNIC(eng, "synjitsu", netsim.MACFor(2))
	br.ConnectNIC(nicProxy, 20*time.Microsecond, 0)
	proxy := NewHost(eng, "synjitsu", nicProxy, serviceIP, MirageProfile())

	// Proxy listens and does NOT consume data (no OnData): bytes buffer.
	var proxyConn *TCPConn
	proxy.ListenTCP(80, func(c *TCPConn) { proxyConn = c })

	var clientConn *TCPConn
	var response []byte
	client.DialTCP(serviceIP, 80, func(c *TCPConn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		clientConn = c
		c.OnData(func(b []byte) { response = append(response, b...) })
		c.Send([]byte("GET / HTTP/1.0\r\n\r\n"))
	})
	eng.RunFor(500 * time.Millisecond)
	if proxyConn == nil || proxyConn.state != StateEstablished {
		t.Fatal("proxy never established")
	}

	// Serialise through the XenStore-style string form.
	tcb, err := proxyConn.ExportTCB()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTCB(tcb.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if string(parsed.Buffered) != "GET / HTTP/1.0\r\n\r\n" {
		t.Fatalf("buffered data = %q", parsed.Buffered)
	}

	// The unikernel boots: same service IP, new stack. Two-phase commit:
	// import first, then the proxy forgets, then the NIC goes live.
	nicUni := netsim.NewNIC(eng, "unikernel", netsim.MACFor(3))
	br.ConnectNIC(nicUni, 20*time.Microsecond, 0)
	uni := NewHost(eng, "unikernel", nicUni, serviceIP, MirageProfile())
	// Take the proxy's stack off that IP before the unikernel answers.
	proxyConn.Forget()
	proxy.IP = IPv4(10, 0, 0, 250) // proxy vacates the service address

	imported, err := uni.ImportTCB(parsed)
	if err != nil {
		t.Fatal(err)
	}
	// The app reads the replayed request and responds.
	var replayed []byte
	imported.OnData(func(b []byte) {
		replayed = append(replayed, b...)
		imported.Send([]byte("HTTP/1.0 200 OK\r\n\r\n"))
		imported.Close()
	})
	// Client must also reach the unikernel's MAC for the service IP now:
	// gratuitous ARP announces the move.
	announce := ARPPacket{Op: ARPReply, SenderMAC: nicUni.Addr, SenderIP: serviceIP,
		TargetMAC: netsim.Broadcast, TargetIP: serviceIP}
	uniEth := Ethernet{Dst: netsim.Broadcast, Src: nicUni.Addr, EtherType: EtherTypeARP}
	nicUni.Send(ethernetFrame(uniEth, arpPayload(announce)))

	eng.Run()
	if string(replayed) != "GET / HTTP/1.0\r\n\r\n" {
		t.Fatalf("replayed request = %q", replayed)
	}
	if string(response) != "HTTP/1.0 200 OK\r\n\r\n" {
		t.Fatalf("client response = %q", response)
	}
	if clientConn.state == StateEstablished {
		t.Fatal("client connection should be closing after server FIN")
	}
}

func TestImportTCBValidation(t *testing.T) {
	eng := sim.New(21)
	nic := netsim.NewNIC(eng, "h", netsim.MACFor(1))
	h := NewHost(eng, "h", nic, IPv4(10, 0, 0, 5), MirageProfile())
	// Wrong local IP.
	if _, err := h.ImportTCB(&TCB{State: TCBStateEstablished, LocalIP: IPv4(1, 2, 3, 4)}); err == nil {
		t.Fatal("import with wrong IP should fail")
	}
	// Bad state.
	if _, err := h.ImportTCB(&TCB{State: "JUNK", LocalIP: h.IP}); err == nil {
		t.Fatal("import with bad state should fail")
	}
	// Duplicate import.
	tcb := &TCB{State: TCBStateEstablished, LocalIP: h.IP, LocalPort: 80,
		RemoteIP: IPv4(10, 0, 0, 9), RemotePort: 5555, SndNxt: 2, RcvNxt: 2}
	if _, err := h.ImportTCB(tcb); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ImportTCB(tcb); err == nil {
		t.Fatal("duplicate import should fail")
	}
}

func TestExportTCBRequiresHandshakeProgress(t *testing.T) {
	eng, a, b, _ := twoHosts(22)
	b.ListenTCP(80, func(*TCPConn) {})
	c := a.DialTCP(b.IP, 80, func(*TCPConn, error) {})
	// Still SYN_SENT (no events processed): not exportable.
	if _, err := c.ExportTCB(); err == nil {
		t.Fatal("export in SYN_SENT should fail")
	}
	eng.Run()
}

func TestHTTPEndToEnd(t *testing.T) {
	eng, a, b, _ := twoHosts(23)
	body := []byte("<html>alice's photos</html>")
	srv, err := b.ServeHTTP(80, func(req *HTTPRequest) *HTTPResponse {
		if req.Path != "/photos" {
			return &HTTPResponse{Status: 404}
		}
		return &HTTPResponse{Status: 200, Body: body}
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp *HTTPResponse
	var rt sim.Duration
	a.HTTPGet(b.IP, 80, "/photos", 10*time.Second, func(r *HTTPResponse, d sim.Duration, err error) {
		if err != nil {
			t.Fatal(err)
		}
		resp, rt = r, d
	})
	eng.Run()
	if resp == nil || resp.Status != 200 || !bytes.Equal(resp.Body, body) {
		t.Fatalf("resp = %+v", resp)
	}
	// Warm-path request on a local network: low single-digit ms
	// ("an already-booted service can respond to local traffic in
	// around 5ms").
	if rt > 8*time.Millisecond {
		t.Errorf("warm HTTP rt = %v, want < 8ms", rt)
	}
	if srv.Served != 1 {
		t.Errorf("served = %d", srv.Served)
	}
	// 404 path.
	var status int
	a.HTTPGet(b.IP, 80, "/missing", 10*time.Second, func(r *HTTPResponse, d sim.Duration, err error) {
		if err != nil {
			t.Fatal(err)
		}
		status = r.Status
	})
	eng.Run()
	if status != 404 {
		t.Fatalf("status = %d", status)
	}
}

func TestHTTPGetTimeout(t *testing.T) {
	eng, a, b, _ := twoHosts(24)
	a.Ping(b.IP, 8, time.Second, func(sim.Duration, error) {})
	eng.Run()
	b.NIC.Down = true
	var gotErr error
	a.HTTPGet(b.IP, 80, "/", 2*time.Second, func(r *HTTPResponse, d sim.Duration, err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", gotErr)
	}
}

func TestHTTPResponseDelay(t *testing.T) {
	// ResponseDelay models app work (e.g. the disk-bound queue service).
	eng, a, b, _ := twoHosts(25)
	srv, _ := b.ServeHTTP(80, func(*HTTPRequest) *HTTPResponse {
		return &HTTPResponse{Status: 200, Body: []byte("slow")}
	})
	srv.ResponseDelay = func(*HTTPRequest) sim.Duration { return 50 * time.Millisecond }
	var rt sim.Duration
	a.HTTPGet(b.IP, 80, "/", 10*time.Second, func(r *HTTPResponse, d sim.Duration, err error) {
		if err != nil {
			t.Fatal(err)
		}
		rt = d
	})
	eng.Run()
	if rt < 50*time.Millisecond {
		t.Fatalf("rt = %v, want >= 50ms app delay", rt)
	}
}
