package conduit

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"jitsu/internal/sim"
	"jitsu/internal/xen"
	"jitsu/internal/xenstore"
)

func newRig() (*sim.Engine, *xen.Hypervisor, *Registry) {
	eng := sim.New(11)
	st := xenstore.NewStore(xenstore.JitsuReconciler{})
	hyp := xen.NewHypervisor(eng, st, xen.CubieboardARM(), 1024)
	return eng, hyp, NewRegistry(hyp)
}

func TestRingReadWrite(t *testing.T) {
	pg := &xen.Page{}
	r := &ring{page: pg}
	if r.used() != 0 || r.free() != RingSize {
		t.Fatal("fresh ring not empty")
	}
	n := r.write([]byte("hello"))
	if n != 5 || r.used() != 5 {
		t.Fatalf("write n=%d used=%d", n, r.used())
	}
	if got := r.read(-1); string(got) != "hello" {
		t.Fatalf("read %q", got)
	}
	if r.used() != 0 {
		t.Fatal("ring not drained")
	}
}

func TestRingWraparound(t *testing.T) {
	pg := &xen.Page{}
	r := &ring{page: pg}
	chunk := make([]byte, RingSize/2+100)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	// Fill, drain, fill again: the second fill wraps the index.
	for round := 0; round < 3; round++ {
		if n := r.write(chunk); n != len(chunk) {
			t.Fatalf("round %d: wrote %d", round, n)
		}
		got := r.read(-1)
		if !bytes.Equal(got, chunk) {
			t.Fatalf("round %d: wraparound corrupted data", round)
		}
	}
}

func TestRingFullPartialWrite(t *testing.T) {
	pg := &xen.Page{}
	r := &ring{page: pg}
	big := make([]byte, RingSize+500)
	n := r.write(big)
	if n != RingSize {
		t.Fatalf("wrote %d, want %d", n, RingSize)
	}
	if r.write([]byte("x")) != 0 {
		t.Fatal("wrote into a full ring")
	}
	r.read(100)
	if r.write([]byte("x")) != 1 {
		t.Fatal("space not reclaimed after read")
	}
}

// Property: any sequence of interleaved writes and reads preserves the
// byte stream (FIFO, no loss, no reordering).
func TestRingStreamProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		pg := &xen.Page{}
		r := &ring{page: pg}
		var want, got []byte
		pending := []byte{}
		for _, c := range chunks {
			if len(c) > 600 {
				c = c[:600]
			}
			want = append(want, c...)
			pending = append(pending, c...)
			n := r.write(pending)
			pending = pending[n:]
			got = append(got, r.read(-1)...)
		}
		got = append(got, r.read(-1)...)
		// Anything still pending never entered the ring.
		want = want[:len(want)-len(pending)]
		return bytes.Equal(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousAndEcho(t *testing.T) {
	eng, _, reg := newRig()
	// Server (dom 3) registers http_server and echoes upper-cased data.
	var serverEP *Endpoint
	_, err := reg.Register(3, "http_server", func(ep *Endpoint) {
		serverEP = ep
		ep.OnData(func(b []byte) {
			ep.Write(bytes.ToUpper(b))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Client (dom 7) connects and sends.
	ep, err := reg.Connect(7, "http_server")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	ep.OnData(func(b []byte) { got = append(got, b...) })
	ep.Write([]byte("hello conduit"))
	eng.Run()
	if string(got) != "HELLO CONDUIT" {
		t.Fatalf("echo = %q", got)
	}
	if serverEP == nil || serverEP.Peer != 7 || ep.Peer != 3 {
		t.Fatalf("peer ids: server=%+v client=%+v", serverEP, ep)
	}
	if ep.Port != serverEP.Port {
		t.Fatalf("port mismatch %q vs %q", ep.Port, serverEP.Port)
	}
}

func TestXenStoreLayoutMatchesFigure5(t *testing.T) {
	eng, hyp, reg := newRig()
	reg.Register(3, "http_server", func(ep *Endpoint) { ep.OnData(func([]byte) {}) })
	ep, err := reg.Connect(7, "http_server")
	if err != nil {
		t.Fatal(err)
	}
	ep.Write([]byte("x"))
	eng.Run()
	st := hyp.Store
	// Name registration.
	if v, _ := st.Read(xenstore.Dom0, nil, "/conduit/http_server"); v != "3" {
		t.Fatalf("/conduit/http_server = %q", v)
	}
	// Established connection recorded.
	est, err := st.List(xenstore.Dom0, nil, "/conduit/http_server/established")
	if err != nil || len(est) != 1 {
		t.Fatalf("established = %v, %v", est, err)
	}
	// Flow metadata present and s-expression shaped.
	flows, _ := st.List(xenstore.Dom0, nil, "/conduit/flows")
	if len(flows) != 1 {
		t.Fatalf("flows = %v", flows)
	}
	fv, _ := st.Read(xenstore.Dom0, nil, "/conduit/flows/"+flows[0])
	if !strings.Contains(fv, "(established") || !strings.Contains(fv, "(client 7)") {
		t.Fatalf("flow metadata = %q", fv)
	}
	// The listen entry was consumed.
	listen, _ := st.List(xenstore.Dom0, nil, "/conduit/http_server/listen")
	if len(listen) != 0 {
		t.Fatalf("listen queue not drained: %v", listen)
	}
}

func TestThirdPartyCannotSeeListenEntries(t *testing.T) {
	// §3.2.3's security property, end to end: while a connection request
	// is in flight, only the server and the client can read it.
	eng, hyp, reg := newRig()
	st := hyp.Store
	reg.Register(3, "secret_svc", func(ep *Endpoint) { ep.OnData(func([]byte) {}) })
	// Intercept: write a listen entry manually as dom 7 (client side of
	// Connect) and check dom 9 cannot read it before the server consumes
	// it. We must check before the watch fires, so write without Connect.
	if err := st.Write(7, nil, "/conduit/secret_svc/listen/conn99", "domid=7 ring-tx=0 ring-rx=0 evtchn=0"); err != nil {
		t.Fatal(err)
	}
	// The server's watch fired synchronously and may have removed it
	// (invalid refs) — write again with the watch disabled by reading
	// the permission state directly instead.
	st.Write(7, nil, "/conduit/secret_svc/listen/conn98", "probe")
	if _, err := st.Read(9, nil, "/conduit/secret_svc/listen/conn98"); !errors.Is(err, xenstore.ErrPerm) && !errors.Is(err, xenstore.ErrNotFound) {
		t.Fatalf("third party read = %v, want EACCES/ENOENT", err)
	}
	eng.Run()
}

func TestLargeTransferThroughRing(t *testing.T) {
	// 64 KiB through a 4 KiB ring: exercises backpressure + credits.
	eng, _, reg := newRig()
	var received []byte
	reg.Register(3, "bulk", func(ep *Endpoint) {
		ep.OnData(func(b []byte) { received = append(received, b...) })
	})
	ep, err := reg.Connect(7, "bulk")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	ep.Write(payload)
	eng.Run()
	if !bytes.Equal(received, payload) {
		t.Fatalf("bulk transfer corrupted: %d/%d bytes", len(received), len(payload))
	}
}

func TestBidirectionalSimultaneous(t *testing.T) {
	eng, _, reg := newRig()
	var atServer, atClient []byte
	reg.Register(3, "duplex", func(ep *Endpoint) {
		ep.OnData(func(b []byte) { atServer = append(atServer, b...) })
		ep.Write([]byte("from-server"))
	})
	ep, _ := reg.Connect(7, "duplex")
	ep.OnData(func(b []byte) { atClient = append(atClient, b...) })
	ep.Write([]byte("from-client"))
	eng.Run()
	if string(atServer) != "from-client" || string(atClient) != "from-server" {
		t.Fatalf("duplex: server=%q client=%q", atServer, atClient)
	}
}

func TestCloseSignalsPeer(t *testing.T) {
	eng, _, reg := newRig()
	var serverEP *Endpoint
	reg.Register(3, "closing", func(ep *Endpoint) {
		serverEP = ep
		ep.OnData(func([]byte) {})
	})
	ep, _ := reg.Connect(7, "closing")
	ep.Write([]byte("last words"))
	eng.Run()
	ep.Close()
	eng.Run()
	if err := serverEP.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("peer did not observe close: write = %v", err)
	}
	if err := ep.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close = %v", err)
	}
	// Data sent before close arrived first.
	if serverEP.BytesIn != uint64(len("last words")) {
		t.Fatalf("bytes in = %d", serverEP.BytesIn)
	}
}

func TestConnectUnknownName(t *testing.T) {
	_, _, reg := newRig()
	if _, err := reg.Connect(7, "nonexistent"); !errors.Is(err, ErrNoSuchEndpoint) {
		t.Fatalf("err = %v", err)
	}
	if _, err := reg.Resolve(7, "nonexistent"); !errors.Is(err, ErrNoSuchEndpoint) {
		t.Fatalf("resolve err = %v", err)
	}
}

func TestResolveAndNames(t *testing.T) {
	eng, _, reg := newRig()
	reg.Register(3, "http_server", func(*Endpoint) {})
	reg.Register(5, "jitsud", func(*Endpoint) {})
	eng.Run()
	d, err := reg.Resolve(7, "jitsud")
	if err != nil || d != 5 {
		t.Fatalf("resolve = %v, %v", d, err)
	}
}

func TestMultipleClientsOneServer(t *testing.T) {
	eng, _, reg := newRig()
	conns := 0
	reg.Register(3, "popular", func(ep *Endpoint) {
		conns++
		ep.OnData(func(b []byte) { ep.Write(b) })
	})
	var replies [][]byte
	for i := 0; i < 5; i++ {
		ep, err := reg.Connect(xenstore.DomID(10+i), "popular")
		if err != nil {
			t.Fatal(err)
		}
		idx := len(replies)
		replies = append(replies, nil)
		ep.OnData(func(b []byte) { replies[idx] = append(replies[idx], b...) })
		ep.Write([]byte{byte('a' + i)})
	}
	eng.Run()
	if conns != 5 {
		t.Fatalf("server accepted %d conns", conns)
	}
	for i, r := range replies {
		if len(r) != 1 || r[0] != byte('a'+i) {
			t.Fatalf("client %d echo = %q", i, r)
		}
	}
}
