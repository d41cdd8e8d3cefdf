package netsim

import (
	"testing"
	"time"

	"jitsu/internal/sim"
)

// The layer's own benches (ROADMAP perf ledger): `make bench` runs them
// beside the root package's and benchjson files them under "netsim".
// Each op is one 128-byte frame sent and the engine drained.

func benchFrame(dst, src MAC) []byte {
	f := make([]byte, 128)
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	return f
}

// BenchmarkLinkFrame is one hop: NIC -> link -> NIC.
func BenchmarkLinkFrame(b *testing.B) {
	eng := sim.New(1)
	a, rx, _, _ := hostilePair(eng, 20*time.Microsecond)
	rx.SetHandler(func([]byte) {})
	f := benchFrame(rx.Addr, a.Addr)
	b.ReportAllocs()
	for b.Loop() {
		a.Send(f)
		eng.Run()
	}
}

// BenchmarkBridgeFrame is the three hops of a frame between two guests
// on one xenbr0: link, learned-unicast forward, link.
func BenchmarkBridgeFrame(b *testing.B) {
	eng := sim.New(1)
	br := NewBridge(eng, "xenbr0", 10*time.Microsecond)
	nics := make([]*NIC, 3)
	for i := range nics {
		nics[i] = NewNIC(eng, "nic", MACFor(i+1))
		nics[i].SetHandler(func([]byte) {})
		br.ConnectNIC(nics[i], 20*time.Microsecond, 0)
	}
	nics[1].Send(benchFrame(nics[0].Addr, nics[1].Addr)) // teach the bridge where nic1 is
	eng.Run()
	f := benchFrame(nics[1].Addr, nics[0].Addr)
	b.ReportAllocs()
	for b.Loop() {
		nics[0].Send(f)
		eng.Run()
	}
}

// BenchmarkImpairedLink is one hop through the whole fault model:
// loss, jitter, reorder and duplication draws plus the throttle.
func BenchmarkImpairedLink(b *testing.B) {
	eng := sim.New(1)
	a, rx, l, _ := hostilePair(eng, 20*time.Microsecond)
	rx.SetHandler(func([]byte) {})
	l.ImpairAtoB(Impairment{
		Loss: 0.05, Latency: time.Millisecond, Jitter: 500 * time.Microsecond,
		ReorderProb: 0.05, DupProb: 0.05, BitsPerSec: 100e6,
	}, 42)
	f := benchFrame(rx.Addr, a.Addr)
	b.ReportAllocs()
	for b.Loop() {
		a.Send(f)
		eng.Run()
	}
}
