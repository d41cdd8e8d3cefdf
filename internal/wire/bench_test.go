package wire_test

import (
	"fmt"
	"testing"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/blockdev"
	"jitsu/internal/cluster"
	"jitsu/internal/core"
	"jitsu/internal/netstack"
	"jitsu/internal/unikernel"
	"jitsu/internal/wire"
)

// The layer's own benches (ROADMAP perf ledger): `make bench` runs them
// beside the root package's and benchjson files them under "wire".

// BenchmarkWireRoundTrip measures one control-plane frame's encode
// (into a recycled buffer) plus decode for the richest request on the
// wire — Register, carrying a full service config and image. Every verb
// a remote operator issues pays this codec twice (client encode, server
// decode), so its cost bounds the management plane's verb throughput.
func BenchmarkWireRoundTrip(b *testing.B) {
	img := unikernel.UnikernelImage("alice", nil)
	img.MemMiB = 64
	req := api.RegisterRequest{
		Config: core.ServiceConfig{
			Name: "alice.family.name", IP: netstack.IPv4(10, 0, 0, 20), Port: 80,
			Image: img, StateMiB: 16, IdleTimeout: 30 * time.Second,
		},
		MinWarm: 1, Policy: "least-loaded",
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = wire.Append(buf[:0], wire.Version, wire.TRegisterReq, uint32(i), req)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, _, _, err := wire.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// consoleCluster is a 4-board disk-tiered cluster holding 64 services,
// one of them booted: its snapshot is 64 service rows and 5 registries,
// the repository benchmark's operator_wire frame.
func consoleCluster(tb testing.TB) *cluster.Cluster {
	tb.Helper()
	c := cluster.NewCluster(cluster.WithBoards(4), cluster.WithSeed(1),
		cluster.WithBoardOptions(core.WithDisk(blockdev.DefaultConfig())))
	ctl := c.API()
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("site%02d", i)
		if resp := ctl.Register(api.RegisterRequest{Config: core.ServiceConfig{
			Name: name + "." + c.Cfg.Board.Zone, IP: netstack.IPv4(10, 0, 1, byte(i)), Port: 80,
			Image: unikernel.UnikernelImage(name, unikernel.NewStaticSiteApp(name)),
		}}); resp.Err != nil {
			tb.Fatal(resp.Err)
		}
	}
	if resp := ctl.Activate(api.ActivateRequest{Name: "site00." + c.Cfg.Board.Zone}); resp.Err != nil {
		tb.Fatal(resp.Err)
	}
	c.Eng().RunFor(5 * time.Second)
	return c
}

// consoleStats is the snapshot an operator console reads from it.
func consoleStats(b *testing.B) api.StatsResponse {
	return consoleCluster(b).API().Stats(api.StatsRequest{})
}

// consoleWatch serves that cluster on the wire and opens a console
// session watching its stats every period; each snapshot is counted.
func consoleWatch(tb testing.TB, every time.Duration, events *int) *cluster.Cluster {
	tb.Helper()
	c := consoleCluster(tb)
	if _, err := c.ServeWire(cluster.WireConfig{Anonymous: api.ScopeReadOnly}); err != nil {
		tb.Fatal(err)
	}
	cl, err := wire.DialSession(c.Eng(), c.AttachMgmtHost("console", 200), c.MgmtHost(0).IP, wire.DefaultPort, wire.SessionConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	if w := cl.WatchStats(api.WatchStatsRequest{Every: every, OnStats: func(s api.StatsResponse) bool {
		if len(s.Services) != 64 || len(s.Registries) != 5 {
			tb.Fatalf("a tick of %d services and %d registries", len(s.Services), len(s.Registries))
		}
		*events++
		return true
	}}); w.Err != nil {
		tb.Fatal(w.Err)
	}
	return c
}

// BenchmarkStatsEvent is one tick of a console's WatchStats stream: the
// backend fills the stream's buffer, the session encodes it into a
// StatsEvent, the management network carries it, and the client decodes
// it into its stream's buffer and runs OnStats.
func BenchmarkStatsEvent(b *testing.B) {
	events := 0
	c := consoleWatch(b, time.Second, &events)
	c.Eng().RunFor(3 * time.Second) // the buffers on both sides are sized
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Eng().RunFor(time.Second)
	}
	if events < b.N {
		b.Fatalf("%d ticks delivered %d snapshots", b.N, events)
	}
}

// BenchmarkStatsEncode renders that snapshot into a session's recycled
// tx scratch, as the server does per Stats verb and per watch tick. A
// server session encodes the response as the type it is; Append takes an
// any, so the snapshot is boxed once, outside the loop.
func BenchmarkStatsEncode(b *testing.B) {
	var stats any = consoleStats(b)
	var buf []byte
	b.ReportAllocs()
	for b.Loop() {
		var err error
		if buf, err = wire.Append(buf[:0], wire.Version, wire.TStatsResp, 9, stats); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(buf)), "frame-bytes")
}

// BenchmarkStatsDecode parses it back: stateless, every name is a fresh
// string; on a session's decoder the ~210 names are interned.
func BenchmarkStatsDecode(b *testing.B) {
	buf, err := wire.Append(nil, wire.Version, wire.TStatsResp, 9, consoleStats(b))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("stateless", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, _, _, _, _, err := wire.Decode(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session", func(b *testing.B) {
		var d wire.Decoder
		b.ReportAllocs()
		for b.Loop() {
			if _, _, _, _, _, err := d.Decode(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
