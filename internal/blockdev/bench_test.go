package blockdev_test

import (
	"testing"

	"jitsu/internal/blockdev"
	"jitsu/internal/sim"
)

// The layer's own benches (ROADMAP perf ledger): `make bench` runs them
// beside the root package's and benchjson files them under "blockdev".

// BenchmarkDeviceWriteRead is one 16 MiB checkpoint's stay on disk, as a
// demotion and the promotion after it use the device: claim its slots,
// write it, read it back, run the queue to both completions and free
// the slots.
func BenchmarkDeviceWriteRead(b *testing.B) {
	eng := sim.New(1)
	d := blockdev.New(eng, blockdev.DefaultConfig())
	const miB = 16
	reads := 0
	read := func() { reads++ }
	b.ReportAllocs()
	for b.Loop() {
		slots, ok := d.Alloc(miB)
		if !ok {
			b.Fatal("a fresh device is full")
		}
		d.Write(miB, nil)
		d.Read(miB, read)
		eng.Run()
		d.Free(slots)
	}
	if uint64(reads) != d.Reads || d.Writes != d.Reads || d.SlotsUsed() != 0 {
		b.Fatalf("%d reads done, device counts %d writes and %d reads, %d slots held",
			reads, d.Writes, d.Reads, d.SlotsUsed())
	}
}
