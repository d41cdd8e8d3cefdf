package netstack

import (
	"testing"
	"time"
)

// The layer's own benches (ROADMAP perf ledger): `make bench` runs them
// beside the root package's and benchjson files them under "netstack".
// Each op drains the engine, so nothing carries over between ops.

// BenchmarkUDPRoundTrip is a 48-byte datagram echoed back through the
// bridge: two packets, six fabric hops.
func BenchmarkUDPRoundTrip(b *testing.B) {
	eng, a, srv, _ := twoHosts(1)
	srv.BindUDP(7, func(src IP, port uint16, p []byte) { srv.SendUDP(src, 7, port, p) })
	a.BindUDP(9000, func(IP, uint16, []byte) {})
	payload := make([]byte, 48)
	b.ReportAllocs()
	for b.Loop() {
		a.SendUDP(srv.IP, 9000, 7, payload)
		eng.Run()
	}
}

// BenchmarkTCPConnect is one short connection — dial, one send, close
// from both ends, TIME_WAIT expiry: a fetch's transport without HTTP.
func BenchmarkTCPConnect(b *testing.B) {
	eng, a, srv, _ := twoHosts(1)
	srv.ListenTCP(80, func(c *TCPConn) {
		c.OnData(func([]byte) { c.Close() })
	})
	payload := []byte("x")
	b.ReportAllocs()
	for b.Loop() {
		a.DialTCP(srv.IP, 80, func(c *TCPConn, err error) {
			if err != nil {
				b.Fatal(err)
			}
			c.Send(payload)
			c.Close()
		})
		eng.Run()
	}
}

// BenchmarkHTTPGet is a whole fetch of a 1 KiB body.
func BenchmarkHTTPGet(b *testing.B) {
	op := httpGetOp(b)
	b.ReportAllocs()
	for b.Loop() {
		op()
	}
}

// httpGetOp is BenchmarkHTTPGet's op: one fetch, the engine drained.
func httpGetOp(tb testing.TB) func() {
	eng, a, srv, _ := twoHosts(1)
	body := make([]byte, 1024)
	srv.ServeHTTP(80, func(*HTTPRequest) *HTTPResponse { return &HTTPResponse{Status: 200, Body: body} })
	return func() {
		a.HTTPGet(srv.IP, 80, "/", 30*time.Second, func(resp *HTTPResponse, _ time.Duration, err error) {
			if err != nil || resp.Status != 200 {
				tb.Fatal(resp, err)
			}
		})
		eng.Run()
	}
}

// TestHTTPGetAllocs pins BenchmarkHTTPGet. Client: the fetch (response
// inside), its connection, the response head's string and the caller's
// callback. Server: the connection, its application, the request head's
// string and the response the handler builds. The send buffers are
// spares (TestWarmFetchAllocs has the same fetch without the last two).
func TestHTTPGetAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(200, httpGetOp(t)); n != 8 {
		t.Fatalf("BenchmarkHTTPGet's fetch allocates %v, want 8", n)
	}
}

// BenchmarkDialTCP is a dial (and the abort that releases its port)
// beside a table of TIME_WAIT connections — what a closed-loop client
// keeps around. The NIC is down: the op is the dial, not its SYN.
func BenchmarkDialTCP(b *testing.B) {
	for _, n := range []struct {
		name  string
		conns int
	}{{"0", 0}, {"1k", 1000}, {"10k", 10000}} {
		b.Run("timewait="+n.name, func(b *testing.B) {
			a, srv := timeWaitConns(b, n.conns)
			a.NIC.Down = true
			done := func(*TCPConn, error) {}
			b.ReportAllocs()
			for b.Loop() {
				a.DialTCP(srv.IP, 80, done).Abort()
			}
		})
	}
}

// BenchmarkEncodeTCPFrame renders a 512-byte data segment, transport ->
// IPv4 -> Ethernet, into the scratch frame (the NIC is down, so nothing
// is sent).
func BenchmarkEncodeTCPFrame(b *testing.B) {
	_, a, srv, _ := twoHosts(1)
	a.SeedARP(srv.IP, srv.NIC.Addr)
	a.NIC.Down = true
	seg := TCPSegment{SrcPort: 49153, DstPort: 80, Seq: 1, Ack: 2, Flags: FlagACK | FlagPSH, Window: tcpWindow}
	payload := make([]byte, 512)
	b.ReportAllocs()
	for b.Loop() {
		a.sendTCP(a.IP, srv.IP, &seg, payload)
	}
	if a.NIC.Drops == 0 {
		b.Fatal("no frame reached the NIC")
	}
}

// BenchmarkTCBCodec is one Synjitsu handoff's worth of codec: the proxy
// encodes a connection with a buffered request, the unikernel parses it.
func BenchmarkTCBCodec(b *testing.B) {
	tcb := &TCB{State: TCBStateEstablished,
		LocalIP: IPv4(10, 0, 0, 20), LocalPort: 80, RemoteIP: IPv4(10, 0, 0, 9), RemotePort: 49152,
		ISS: 1 << 30, IRS: 1 << 31, SndNxt: 1<<30 + 1, RcvNxt: 1<<31 + 40, Window: 65535,
		Buffered: []byte("GET / HTTP/1.0\r\nHost: alice.family.name\r\n\r\n")}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ParseTCB(tcb.Encode()); err != nil {
			b.Fatal(err)
		}
	}
}
