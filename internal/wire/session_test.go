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

// rawSession opens a TCP connection to the wire server, completes the
// V2 handshake by hand and returns the conn plus a counter of the frames
// of each type the server has sent since — a peer that owes the
// protocol no manners, which wire.Client cannot play.
func rawSession(t *testing.T, c *cluster.Cluster, token string) (*netstack.TCPConn, map[byte]int) {
	t.Helper()
	var conn *netstack.TCPConn
	c.AttachMgmtHost("raw", 210).DialTCP(serverIP, wirePort, func(tc *netstack.TCPConn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conn = tc
	})
	c.Eng().RunFor(time.Second)
	if conn == nil {
		t.Fatal("no connection")
	}
	seen := map[byte]int{}
	var rx []byte
	conn.OnData(func(b []byte) {
		rx = append(rx, b...)
		for {
			_, typ, _, _, n, err := wire.Decode(rx)
			if err != nil {
				return
			}
			rx = rx[n:]
			seen[typ]++
		}
	})
	sendRaw(t, conn, wire.THello, 1, wire.Hello{Min: wire.V2, Max: wire.V2, Token: token})
	c.Eng().RunFor(time.Second)
	if seen[wire.THelloAck] != 1 {
		t.Fatalf("handshake: saw %v", seen)
	}
	return conn, seen
}

func sendRaw(t *testing.T, conn *netstack.TCPConn, typ byte, id uint32, msg any) {
	t.Helper()
	buf, err := wire.Append(nil, wire.V2, typ, id, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(buf); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateWatchIDReplacesStream: a second TWatchReq on a live id
// used to overwrite the first stream's Stop, so one cancel left a
// ticker that nothing could reach, snapshotting and sending under the
// same id until the connection closed.
func TestDuplicateWatchIDReplacesStream(t *testing.T) {
	c, srv := wiredCluster(t, 1)
	conn, seen := rawSession(t, c, tokRO)

	sendRaw(t, conn, wire.TWatchReq, 7, wire.WatchReq{Every: 100 * time.Millisecond})
	sendRaw(t, conn, wire.TWatchReq, 7, wire.WatchReq{Every: 100 * time.Millisecond})
	c.Eng().RunFor(time.Second)
	if seen[wire.TWatchResp] != 2 || srv.ActiveWatches() != 1 {
		t.Fatalf("after two requests on one id: %d acks, %d live watches, want 2 and 1",
			seen[wire.TWatchResp], srv.ActiveWatches())
	}
	if seen[wire.TStatsEvent] == 0 {
		t.Fatal("the surviving stream sent nothing")
	}

	sendRaw(t, conn, wire.TWatchCancel, 7, nil)
	c.Eng().RunFor(time.Second) // the cancel lands; anything in flight drains
	if srv.ActiveWatches() != 0 {
		t.Fatalf("live watches after the cancel = %d, want 0", srv.ActiveWatches())
	}
	before := seen[wire.TStatsEvent]
	c.Eng().RunFor(5 * time.Second)
	if got := seen[wire.TStatsEvent] - before; got != 0 {
		t.Fatalf("%d stats events arrived after the only cancel: an orphaned stream is still ticking", got)
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
