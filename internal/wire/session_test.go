package wire_test

import (
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
// verb on its own client pumps the engine, which re-enters onData while
// the outer call is still between two frames. Each frame must be
// consumed before it is routed, and exactly once.
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
}
