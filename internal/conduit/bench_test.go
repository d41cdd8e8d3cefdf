package conduit

import (
	"testing"

	"jitsu/internal/xen"
)

// The layer's own benches (ROADMAP perf ledger): `make bench` runs them
// beside the root package's and benchjson files them under "conduit".

// BenchmarkRingWriteRead moves one 1 KiB message through a vchan ring:
// the producer's copy into the shared page and the consumer's drain out
// of it. The counters run on across iterations, so the copies wrap the
// page's data region as a long-lived channel's do.
func BenchmarkRingWriteRead(b *testing.B) {
	r := &ring{page: &xen.Page{}}
	msg := make([]byte, 1<<10)
	for i := range msg {
		msg[i] = byte(i)
	}
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for b.Loop() {
		if r.write(msg) != len(msg) || len(r.read(-1)) != len(msg) {
			b.Fatal("the ring lost bytes")
		}
	}
}
