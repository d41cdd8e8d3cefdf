package cc_test

import (
	"testing"
	"time"

	"jitsu/internal/cc"
	"jitsu/internal/sim"
)

// The layer's own benches (ROADMAP perf ledger): `make bench` runs them
// beside the root package's and benchjson files them under "cc".

// BenchmarkControllerAcquireAck is one paced chunk's window round trip:
// an Acquire the window grants at once, then its OnAck with an RTT
// sample — the pair of calls every chunk of a migration pre-copy or a
// federation Transfer makes on its uplink's controller.
func BenchmarkControllerAcquireAck(b *testing.B) {
	ctrl := cc.New(sim.New(1), cc.Config{})
	const chunk = 256 << 10
	grants := 0
	grant := func() { grants++ }
	b.ReportAllocs()
	for b.Loop() {
		ctrl.Acquire(chunk, grant)
		ctrl.OnAck(chunk, time.Millisecond)
	}
	if grants != int(ctrl.Acks) || ctrl.InFlight() != 0 {
		b.Fatalf("%d grants for %d acks, %d bytes in flight", grants, ctrl.Acks, ctrl.InFlight())
	}
}

// BenchmarkSenderTransfer is one 16 MiB copy in 1 MiB chunks, each
// acknowledged 2 ms after it goes out, run to completion on a bare
// engine under a fresh controller: the sender's split, grants, timers
// and acks without a network beneath them.
func BenchmarkSenderTransfer(b *testing.B) {
	eng := sim.New(1)
	var chunks, retx, aborts uint64
	done := 0
	b.ReportAllocs()
	for b.Loop() {
		var s *cc.Sender
		s = cc.Send(eng, cc.New(eng, cc.Config{}), cc.Transfer{
			ID: 1, StateMiB: 16, ChunkMiB: 1, Retries: 3, BitsPerSec: 1e9, OpChunk: 1,
			Send: func(hdr []byte, _ int) {
				_, _, idx, _ := cc.ParseHeader(hdr)
				eng.After(2*time.Millisecond, func() { s.OnAck(idx) })
			},
			Chunks: &chunks, Retx: &retx, Aborts: &aborts,
			Done: func(ok bool) {
				if ok {
					done++
				}
			},
		})
		eng.Run()
	}
	if n := uint64(done); n == 0 || chunks != 16*n || retx != 0 || aborts != 0 {
		b.Fatalf("%d transfers done: %d chunks, %d retransmits, %d aborts", done, chunks, retx, aborts)
	}
}
