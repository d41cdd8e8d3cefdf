package netstack

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
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
// write every byte a fresh buffer (the test renderers') has zeroed.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	src, dst := IPv4(10, 0, 0, 9), IPv4(10, 0, 0, 20)
	payload := []byte("an odd-length payload")
	dirty := func(n int) []byte { return bytes.Repeat([]byte{0xa5}, n) }

	eth := Ethernet{Dst: netsim.MACFor(2), Src: netsim.MACFor(1), EtherType: EtherTypeIPv4}
	want := ethernetFrame(eth, payload)
	got := dirty(len(want))
	copy(got[EthernetHeaderLen:], payload)
	eth.EncodeInto(got)
	if !bytes.Equal(got, want) {
		t.Errorf("ethernet\n got %x\nwant %x", got, want)
	}

	arp := ARPPacket{Op: ARPReply, SenderMAC: netsim.MACFor(1), SenderIP: src, TargetMAC: netsim.MACFor(2), TargetIP: dst}
	want, got = arpPayload(arp), dirty(ARPLen)
	arp.EncodeInto(got)
	if !bytes.Equal(got, want) {
		t.Errorf("arp\n got %x\nwant %x", got, want)
	}

	ip := IPv4Header{Protocol: ProtoUDP, Src: src, Dst: dst, ID: 7}
	want = ipv4Packet(ip, payload)
	got = dirty(len(want))
	copy(got[IPv4HeaderLen:], payload)
	ip.EncodeInto(got)
	if !bytes.Equal(got, want) {
		t.Errorf("ipv4\n got %x\nwant %x", got, want)
	}

	icmp := ICMPEcho{Type: ICMPEchoRequest, ID: 3, Seq: 4, Data: payload}
	want = icmpMessage(icmp)
	got = dirty(len(want))
	icmp.EncodeInto(got)
	if !bytes.Equal(got, want) {
		t.Errorf("icmp\n got %x\nwant %x", got, want)
	}

	udp := UDPHeader{SrcPort: 5353, DstPort: 53}
	want = udpDatagram(udp, src, dst, payload)
	got = dirty(len(want))
	udp.EncodeInto(got, src, dst, payload)
	if !bytes.Equal(got, want) {
		t.Errorf("udp\n got %x\nwant %x", got, want)
	}

	for _, mss := range []uint16{0, DefaultMSS} {
		seg := TCPSegment{SrcPort: 49153, DstPort: 80, Seq: 1, Ack: 2, Flags: FlagACK | FlagPSH, Window: tcpWindow, MSS: mss}
		want = tcpSegment(seg, src, dst, payload)
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

// TestOnDataSeesTheFrame: what OnData hands the application is a view
// of the received frame — not a copy — with its capacity clipped, so
// the one thing a consumer does to it besides read, append, lands in
// memory of its own and leaves the frame and its neighbours in the slab
// alone. Data that had to be parked is the exception: a private copy.
func TestOnDataSeesTheFrame(t *testing.T) {
	eng, a, b, _ := twoHosts(3)
	tap := netsim.NewCapture(eng, 0)
	a.NIC.Link().Tap(tap)
	b.NIC.Link().Tap(tap)
	var got [][]byte
	var parked *TCPConn
	b.ListenTCP(80, func(c *TCPConn) { c.OnData(func(p []byte) { got = append(got, p) }) })
	b.ListenTCP(81, func(c *TCPConn) { parked = c })
	dial := func(port uint16) (conn *TCPConn) {
		a.DialTCP(b.IP, port, func(c *TCPConn, err error) {
			if err != nil {
				t.Fatal(err)
			}
			conn = c
		})
		eng.Run()
		return conn
	}
	// within reports whether p is the tail of a delivered frame.
	within := func(p []byte) bool {
		for _, rec := range tap.Records {
			if f := rec.Frame; len(f) >= len(p) && &f[len(f)-len(p)] == &p[0] {
				return true
			}
		}
		return false
	}
	c := dial(80)
	for _, s := range []string{"first segment", "second", "third"} {
		c.Send([]byte(s))
		eng.Run()
	}
	// A frame the fabric did not cut to size — injected at the port,
	// padded past its IP length, with spare capacity behind it: the view
	// handed up must end where the payload does all the same.
	seg := TCPSegment{SrcPort: c.key.localPort, DstPort: 80, Seq: c.sndNxt, Ack: c.rcvNxt, Flags: FlagACK | FlagPSH, Window: tcpWindow}
	ip := IPv4Header{Protocol: ProtoTCP, Src: a.IP, Dst: b.IP}
	eth := Ethernet{Dst: b.NIC.Addr, Src: a.NIC.Addr, EtherType: EtherTypeIPv4}
	padded := append(ethernetFrame(eth, ipv4Packet(ip, tcpSegment(seg, a.IP, b.IP, []byte("padded")))), make([]byte, 6, 64)...)
	b.NIC.Deliver(padded)
	eng.Run()
	early := dial(81)
	early.Send([]byte("nobody listening yet"))
	eng.Run()

	before := make([][]byte, len(tap.Records))
	for i, rec := range tap.Records {
		before[i] = bytes.Clone(rec.Frame)
	}
	if len(got) != 4 || string(got[3]) != "padded" || &got[3][0] != &padded[len(padded)-12] {
		t.Fatalf("OnData ran %d times, want 4 and the last a view of the injected frame", len(got))
	}
	for i, p := range got {
		if i < 3 && !within(p) {
			t.Errorf("payload %d (%q) is not a view of the frame it arrived in", i, p)
		}
		if len(p) != cap(p) {
			t.Errorf("payload %d: len %d, cap %d: an append would write the slab", i, len(p), cap(p))
		}
		_ = append(p, bytes.Repeat([]byte{0xee}, 64)...)
	}
	for i, rec := range tap.Records {
		if !bytes.Equal(rec.Frame, before[i]) {
			t.Errorf("frame %d changed under an append to a payload:\n now %x\n was %x", i, rec.Frame, before[i])
		}
	}
	if !bytes.Equal(padded[len(padded)-6:], make([]byte, 6)) {
		t.Errorf("the injected frame's padding reads %x after an append to its payload", padded[len(padded)-6:])
	}

	// Parked data: copied when it arrived, so the slab it came in is
	// not held by a connection nobody is reading; and again on import.
	tcb, err := parked.ExportTCB()
	if err != nil {
		t.Fatal(err)
	}
	parked.OnData(func(p []byte) {
		if string(p) != "nobody listening yet" || within(p) {
			t.Errorf("parked payload %q is a view of its frame, want a copy", p)
		}
	})
	parked.Forget()
	imported, err := b.ImportTCB(tcb)
	if err != nil {
		t.Fatal(err)
	}
	copy(tcb.Buffered, "XXXXXX")
	imported.OnData(func(p []byte) {
		if string(p) != "nobody listening yet" {
			t.Errorf("imported connection replays %q: it shares the TCB's buffer", p)
		}
	})
}

// TestSetupCallbacksAreLetGo: a connection tells its dialler or its
// listener that it is up and then holds neither; a dial that never gets
// there fails through the same callback, once, and counts as the close
// notification.
func TestSetupCallbacksAreLetGo(t *testing.T) {
	eng, a, b, _ := twoHosts(4)
	var accepted *TCPConn
	b.ListenTCP(80, func(c *TCPConn) { accepted = c })
	var results []string
	done := func(c *TCPConn, err error) { results = append(results, fmt.Sprint(c != nil, err)) }
	dialled := a.DialTCP(b.IP, 80, done)
	refused := a.DialTCP(b.IP, 81, done)
	aborted := a.DialTCP(b.IP, 80, done)
	aborted.Abort()
	eng.Run()
	want := fmt.Sprint([]string{"false " + ErrConnReset.Error(), "true <nil>", "false " + ErrConnReset.Error()})
	if fmt.Sprint(results) != want {
		t.Fatalf("dial callbacks ran %v, want %v", results, want)
	}
	for _, c := range []*TCPConn{dialled, accepted, refused, aborted} {
		if c.dialDone != nil || c.listener != nil {
			t.Errorf("%v connection %v still holds who set it up", c.state, c.key)
		}
	}
	for _, c := range []*TCPConn{refused, aborted} {
		late := "not called"
		c.Attach(testApp{closed: func(err error) { late = fmt.Sprint(err) }})
		if late != ErrConnReset.Error() {
			t.Errorf("Attach after a failed dial: %s", late)
		}
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

// mallocs counts the heap objects fn allocates, with the collector off:
// a cycle allocates a handful of its own. The count is the process's,
// and an OS thread the runtime starts meanwhile (more likely on a loaded
// machine) allocates its m and g structs into it, so a run during which
// one started is measured again.
func mallocs(fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	threads := pprof.Lookup("threadcreate")
	for try := 0; ; try++ {
		var before, after runtime.MemStats
		n := threads.Count()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if threads.Count() == n || try == 3 {
			return after.Mallocs - before.Mallocs
		}
	}
}

// TestFramePathAllocs pins what a packet costs on the stack + fabric
// path, host -> link -> bridge -> link -> host: its frames' share of
// the fabric's slabs and nothing else. Totals over 10 000 packets, not a
// per-packet average that rounds a slab per 150 down to 0.
func TestFramePathAllocs(t *testing.T) {
	const packets, slab = 10000, 16 << 10
	times := func(fn func()) func() {
		return func() {
			for i := 0; i < packets; i++ {
				fn()
			}
		}
	}
	eng, a, b, _ := twoHosts(1)
	b.BindUDP(7, func(IP, uint16, []byte) {})
	payload := make([]byte, 48)
	udp := times(func() {
		a.SendUDP(b.IP, 9000, 7, payload)
		eng.Run()
	})
	udp() // resolve ARP, fill the pools
	frameLen := txHeadroom + UDPHeaderLen + len(payload)
	if n, limit := mallocs(udp), uint64(packets*frameLen/slab+2); n == 0 || n > limit {
		t.Errorf("%d UDP datagrams: %d allocs, want 1..%d", packets, n, limit)
	}

	// A data segment and its ACK: two frames cut from the slab, the
	// payload handed up as a view of the first.
	c, run := established(t, 2)
	data := make([]byte, 100)
	tcp := times(func() {
		c.Send(data)
		run()
	})
	tcp()
	frameLen = 2*(txHeadroom+TCPHeaderLen) + len(data)
	if n, limit := mallocs(tcp), uint64(packets*frameLen/slab+2); n == 0 || n > limit {
		t.Errorf("%d TCP data segments + ACKs: %d allocs, want 1..%d", packets, n, limit)
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
		return NewHost(eng, "host", nic, IPv4(10, 0, 0, byte(id)), StackProfile{})
	}
	a, b = mk(1), mk(2)
	a.SeedARP(b.IP, b.NIC.Addr) // resolved even when n is 0
	b.ListenTCP(80, func(c *TCPConn) { c.Attach(testApp{closed: func(error) { c.Close() }}) })
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
// count beside 5 000 TIME_WAIT connections as beside none: one, the
// connection — the dial's callback is a field of it, and its
// retransmission timer's event is the connection itself. The NIC is
// down so the measured op is the dial itself, not its SYN's journey.
func TestDialAllocsIndependentOfTimeWait(t *testing.T) {
	dial := func(n int) float64 {
		a, b := timeWaitConns(t, n)
		a.NIC.Down = true
		return testing.AllocsPerRun(500, func() {
			a.DialTCP(b.IP, 80, func(*TCPConn, error) {}).Abort()
		})
	}
	if none, many := dial(0), dial(5000); none != 1 || many != 1 {
		t.Fatalf("dial allocates %v beside no TIME_WAIT connections, %v beside 5000, want 1 and 1", none, many)
	}
}

// TestTimeWaitLetsGoOfTheFetch: a finished fetch leaves both ends in
// TIME_WAIT for 2 s, and a busy host holds thousands of those. Each
// keeps what hears Closed at expiry, and that must pin nothing of the
// fetch: the client's fetch and the server's connection have each
// handed their connection to a handler of zero size, so neither the
// caller, the request the server parsed nor the response it rendered
// stays behind, and the send buffers have gone back to their hosts.
func TestTimeWaitLetsGoOfTheFetch(t *testing.T) {
	eng, a, b, _ := twoHosts(1)
	freed := make(chan string, 3)
	if _, err := b.ServeHTTP(80, func(req *HTTPRequest) *HTTPResponse {
		resp := &HTTPResponse{Status: 200, Body: []byte("ok")}
		runtime.AddCleanup(req, func(what string) { freed <- what }, "the request")
		runtime.AddCleanup(resp, func(what string) { freed <- what }, "the response")
		return resp
	}); err != nil {
		t.Fatal(err)
	}
	func() {
		held := new([1 << 10]byte) // what the caller's callback closes over
		runtime.AddCleanup(held, func(what string) { freed <- what }, "the caller")
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
			if c.state != StateTimeWait || c.sndBuf != nil || c.pendingData != nil || c.onData != nil || c.dialDone != nil || c.listener != nil {
				t.Errorf("%s: %v connection still holds its buffers or callbacks", h.Name, c.state)
			}
			if reflect.TypeOf(c.app).Size() != 0 {
				t.Errorf("%s: a connection in TIME_WAIT keeps a %T, not a zero-size application", h.Name, c.app)
			}
		}
	}
	left := map[string]bool{"the caller": true, "the request": true, "the response": true}
	for i := 0; i < 20 && len(left) > 0; i++ {
		runtime.GC()
		select {
		case what := <-freed:
			delete(left, what)
		case <-time.After(10 * time.Millisecond):
		}
	}
	for what := range left {
		t.Errorf("a connection in TIME_WAIT still holds %s", what)
	}
	eng.Run() // the expiry still closes both ends
	if n := len(a.conns) + len(b.conns); n != 0 {
		t.Fatalf("%d connections left after TIME_WAIT", n)
	}
}

// TestWarmFetchAllocs pins a warm fetch, client and server together, to
// the objects it is made of. Client: the fetch (which holds the
// response), its connection and the response head's string. Server: the
// connection, its application and the request head's string. Both send
// buffers are spares the previous fetch's connections gave back. The
// body arrives in one segment and is a view of its frame; the frames'
// share of the fabric's slabs is well under one per fetch, which the
// per-run average rounds away.
func TestWarmFetchAllocs(t *testing.T) {
	eng, a, b, _ := twoHosts(1)
	resp := &HTTPResponse{Status: 200, Body: make([]byte, 1024)}
	if _, err := b.ServeHTTP(80, func(*HTTPRequest) *HTTPResponse { return resp }); err != nil {
		t.Fatal(err)
	}
	done := func(r *HTTPResponse, _ sim.Duration, err error) {
		if err != nil || len(r.Body) != 1024 {
			t.Fatalf("fetch: %v, %v", r, err)
		}
	}
	fetch := func() {
		a.HTTPGet(b.IP, 80, "/index.html", time.Second, done)
		eng.Run()
	}
	fetch() // ARP, the engine's and the stacks' pools
	if n := testing.AllocsPerRun(500, fetch); n != 6 {
		t.Fatalf("a warm fetch allocates %v, want 6", n)
	}
}
