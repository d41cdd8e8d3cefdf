package wire_test

import (
	"testing"
	"time"

	"jitsu/internal/api"
)

// TestWatchTickAllocs pins a steady-state WatchStats tick of the
// operator console's snapshot — 64 services, 5 registries — at zero
// objects on each side: the stream's backend fill on the server, and,
// from one tick to the next over the wire, the encode, the frames'
// share of the fabric's slabs (well under one per tick, which the
// per-run average rounds away) and the client's decode into its stream.
func TestWatchTickAllocs(t *testing.T) {
	events := 0
	c := consoleWatch(t, time.Second, &events)
	ticks := 0
	if w := c.API().WatchStats(api.WatchStatsRequest{Every: time.Second, OnStats: func(api.StatsResponse) bool {
		ticks++
		return true
	}}); w.Err != nil {
		t.Fatal(w.Err)
	}
	tick := func() { c.Eng().RunFor(time.Second) }
	for i := 0; i < 3; i++ {
		tick() // both sides size their buffers on the first snapshots
	}
	if n := testing.AllocsPerRun(50, tick); n != 0 {
		t.Fatalf("a steady-state tick allocates %v objects, server and client together, want 0", n)
	}
	if events < 53 || ticks < 53 {
		t.Fatalf("%d ticks delivered %d snapshots over the wire and %d in process", 53, events, ticks)
	}
}
