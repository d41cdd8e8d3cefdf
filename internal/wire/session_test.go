package wire_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/cluster"
	"jitsu/internal/core"
	"jitsu/internal/netstack"
	"jitsu/internal/unikernel"
	"jitsu/internal/wire"
)

// rawConn opens a TCP connection to the wire server from a fresh
// console and speaks no protocol on it: a peer that owes the protocol no
// manners, which wire.Client cannot play. got collects every message the
// server sends, by frame type.
func rawConn(t *testing.T, c *cluster.Cluster, octet byte) (conn *netstack.TCPConn, got map[byte][]any) {
	t.Helper()
	c.AttachMgmtHost("raw", octet).DialTCP(serverIP, wirePort, func(tc *netstack.TCPConn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conn = tc
	})
	c.Eng().RunFor(time.Second)
	if conn == nil {
		t.Fatal("no connection")
	}
	got = map[byte][]any{}
	var rx []byte
	conn.OnData(func(b []byte) {
		rx = append(rx, b...)
		for {
			_, typ, _, msg, n, err := wire.Decode(rx)
			if err != nil {
				return
			}
			rx = rx[n:]
			got[typ] = append(got[typ], msg)
		}
	})
	return conn, got
}

// rawSession is a rawConn past the handshake, presenting token.
func rawSession(t *testing.T, c *cluster.Cluster, token string) (*netstack.TCPConn, map[byte][]any) {
	t.Helper()
	conn, got := rawConn(t, c, 210)
	sendRaw(t, conn, wire.THello, 1, wire.Hello{Min: wire.Version, Max: wire.Version, Token: token})
	c.Eng().RunFor(time.Second)
	if len(got[wire.THelloAck]) != 1 {
		t.Fatalf("handshake: got %v", got)
	}
	return conn, got
}

func sendRaw(t *testing.T, conn *netstack.TCPConn, typ byte, id uint32, msg any) {
	t.Helper()
	if err := conn.Send(frame(t, typ, id, msg)); err != nil {
		t.Fatal(err)
	}
}

func frame(t *testing.T, typ byte, id uint32, msg any) []byte {
	t.Helper()
	buf, err := wire.Append(nil, wire.Version, typ, id, msg)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestDuplicateWatchIDReplacesStream: a second TWatchReq on a live id
// used to overwrite the first stream's Stop, so one cancel left a
// ticker that nothing could reach, snapshotting and sending under the
// same id until the connection closed.
func TestDuplicateWatchIDReplacesStream(t *testing.T) {
	c, srv := wiredCluster(t, 1)
	conn, got := rawSession(t, c, tokRO)

	sendRaw(t, conn, wire.TWatchReq, 7, wire.WatchReq{Every: 100 * time.Millisecond})
	sendRaw(t, conn, wire.TWatchReq, 7, wire.WatchReq{Every: 100 * time.Millisecond})
	c.Eng().RunFor(time.Second)
	if len(got[wire.TWatchResp]) != 2 || srv.ActiveWatches() != 1 {
		t.Fatalf("after two requests on one id: %d acks, %d live watches, want 2 and 1",
			len(got[wire.TWatchResp]), srv.ActiveWatches())
	}
	if len(got[wire.TStatsEvent]) == 0 {
		t.Fatal("the surviving stream sent nothing")
	}

	sendRaw(t, conn, wire.TWatchCancel, 7, nil)
	c.Eng().RunFor(time.Second) // the cancel lands; anything in flight drains
	if srv.ActiveWatches() != 0 {
		t.Fatalf("live watches after the cancel = %d, want 0", srv.ActiveWatches())
	}
	before := len(got[wire.TStatsEvent])
	c.Eng().RunFor(5 * time.Second)
	if n := len(got[wire.TStatsEvent]) - before; n != 0 {
		t.Fatalf("%d stats events arrived after the only cancel: an orphaned stream is still ticking", n)
	}
}

// TestWatchesPerSessionAreBounded: every request id can name a stream,
// so a session could open any number of tickers. Past 16 live watches a
// new id is refused with CodeUnavailable and the session stays up; a
// live id still replaces its stream, and the close reclaims them all.
func TestWatchesPerSessionAreBounded(t *testing.T) {
	c, srv := wiredCluster(t, 1)
	conn, got := rawSession(t, c, tokRO)

	answers := func() (acks, refused int) {
		for _, m := range got[wire.TWatchResp] {
			switch err := m.(wire.WatchResp).Err; {
			case err == nil:
				acks++
			case err.Code == api.CodeUnavailable:
				refused++
			default:
				t.Fatalf("watch refused with %v", err)
			}
		}
		return acks, refused
	}
	for id := uint32(1); id <= 17; id++ {
		sendRaw(t, conn, wire.TWatchReq, id, wire.WatchReq{Every: time.Second})
	}
	c.Eng().RunFor(time.Second)
	if acks, refused := answers(); acks != 16 || refused != 1 || srv.ActiveWatches() != 16 {
		t.Fatalf("17 ids: %d acks, %d refusals, %d live watches; want 16, 1 and 16",
			acks, refused, srv.ActiveWatches())
	}
	sendRaw(t, conn, wire.TWatchReq, 3, wire.WatchReq{Every: time.Second})
	c.Eng().RunFor(time.Second)
	if acks, refused := answers(); acks != 17 || refused != 1 || srv.ActiveWatches() != 16 {
		t.Fatalf("a live id at the cap: %d acks, %d refusals, %d live watches; want 17, 1 and 16",
			acks, refused, srv.ActiveWatches())
	}
	if srv.ProtoErrs != 0 || srv.ActiveConns() != 1 {
		t.Fatalf("the refusal disturbed the session: protoerrs=%d conns=%d", srv.ProtoErrs, srv.ActiveConns())
	}

	conn.Close()
	c.Eng().RunFor(time.Second)
	if srv.ActiveWatches() != 0 || srv.ActiveConns() != 0 {
		t.Fatalf("after the close: %d watches, %d conns, want 0 and 0", srv.ActiveWatches(), srv.ActiveConns())
	}
}

// TestReentrantStatsInsideCallback: an OnStats callback that issues a
// verb on its own client pumps the engine, which re-enters the client's
// Data while the outer call is still between two frames. Each frame must
// be consumed before it is routed, and exactly once.
func TestReentrantStatsInsideCallback(t *testing.T) {
	c, _ := wiredCluster(t, 1)
	cl := dialOp(t, c, "console", 200, tokAdmin)
	for i, name := range []string{"alice", "bob"} {
		if resp := cl.Register(api.RegisterRequest{Config: core.ServiceConfig{
			Name: name + "." + c.Cfg.Board.Zone, IP: netstack.IPv4(10, 0, 0, byte(20+i)), Port: 80,
			Image: unikernel.UnikernelImage(name, nil),
		}}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}

	events, nested := 0, 0
	watch := cl.WatchStats(api.WatchStatsRequest{Every: 50 * time.Millisecond,
		OnStats: func(s api.StatsResponse) bool {
			events++
			if len(s.Services) != 2 {
				t.Fatalf("event %d lists %d services, want 2", events, len(s.Services))
			}
			inner := cl.Stats(api.StatsRequest{})
			if inner.Err != nil || len(inner.Services) != 2 {
				t.Fatalf("nested Stats in event %d: err %v, %d services", events, inner.Err, len(inner.Services))
			}
			nested++
			return events < 20
		}})
	if watch.Err != nil {
		t.Fatal(watch.Err)
	}
	c.Eng().RunFor(5 * time.Second)
	if events != 20 || nested != 20 {
		t.Fatalf("events = %d, nested verbs = %d, want 20 each", events, nested)
	}
	// Every frame was routed once: the acks of 2 registers, the watch and
	// 20 nested Stats, the hello-ack, and 20 events.
	if want := uint64(1 + 2 + 1 + 20 + 20); cl.Frames != want || cl.Events != 20 {
		t.Fatalf("client decoded %d frames (%d events), want %d (20)", cl.Frames, cl.Events, want)
	}
	if out := cl.Stats(api.StatsRequest{}); out.Err != nil || len(out.Services) != 2 {
		t.Fatalf("session after the stream: err %v, %d services", out.Err, len(out.Services))
	}

	// A stream decodes every tick into the one buffer it keeps, but an
	// OnStats that pumps through its own stream's next tick must still
	// read its own snapshot unchanged: the tick that arrives meanwhile —
	// after an activation that changes it — gets a buffer of its own.
	outer, inner := 0, 0
	if w := cl.WatchStats(api.WatchStatsRequest{Every: 50 * time.Millisecond,
		OnStats: func(s api.StatsResponse) bool {
			if outer > inner {
				inner++
				return true
			}
			outer++
			before, err := wire.Append(nil, wire.Version, wire.TStatsEvent, 1, s)
			if err != nil {
				t.Fatal(err)
			}
			if resp := cl.Activate(api.ActivateRequest{Name: "alice." + c.Cfg.Board.Zone}); resp.Err != nil {
				t.Fatal(resp.Err)
			}
			for inner < outer {
				cl.Stats(api.StatsRequest{})
			}
			if after, _ := wire.Append(nil, wire.Version, wire.TStatsEvent, 1, s); !bytes.Equal(before, after) {
				t.Fatalf("the snapshot OnStats reads changed under its stream's next tick:\n%x\nvs\n%x", before, after)
			}
			return false
		}}); w.Err != nil {
		t.Fatal(w.Err)
	}
	c.Eng().RunFor(time.Second)
	if outer != 1 || inner != 1 {
		t.Fatalf("%d outer and %d nested ticks, want 1 and 1", outer, inner)
	}
}

// TestServerReassemblesLargeFrameLinearly: a peer that has not even said
// Hello may announce a frame of up to MaxFrame and dribble it in; the
// server must reassemble it at a cost in proportion to the frame — here
// ~200 KiB arriving in 1,460-byte segments, the network's share
// included — and then drop the session for the junk it carried.
func TestServerReassemblesLargeFrameLinearly(t *testing.T) {
	c, srv := wiredCluster(t, 1)
	conn, _ := rawConn(t, c, 211)
	junk := make([]byte, 200<<10)
	big := binary.BigEndian.AppendUint32(nil, uint32(6+len(junk)))
	big = append(append(big, wire.Version, wire.THello, 0, 0, 0, 1), junk...)
	if err := conn.Send(big); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c.Eng().RunFor(5 * time.Second)
	runtime.ReadMemStats(&after)
	if srv.ProtoErrs != 1 {
		t.Fatalf("protocol errors = %d, want 1: the frame was not reassembled whole", srv.ProtoErrs)
	}
	objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d-byte frame: %d objects, %d bytes", len(big), objects, bytes)
	if objects > 150 || bytes > 8*uint64(len(big)) {
		t.Fatalf("a %d-byte frame allocated %d objects, %d bytes; want ≤ 150 and ≤ %d",
			len(big), objects, bytes, 8*len(big))
	}
}
