package obs_test

import (
	"testing"

	"jitsu/internal/blockdev"
	"jitsu/internal/core"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// The layer's own benches (ROADMAP perf ledger): `make bench` runs them
// beside the root package's and benchjson files them under "obs".

// BenchmarkTraceOverhead measures the flight recorder's hot path — one
// Begin/End span pair plus one instant on the bounded ring, timestamps
// from the virtual clock. The bench gate holds this at zero allocs/op:
// tracing must never add GC pressure to the paths it observes.
func BenchmarkTraceOverhead(b *testing.B) {
	eng := sim.New(1)
	tr := obs.NewTracer(1 << 12)
	tr.BindClock(eng.Now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin(0, "activation", "boot", obs.Str("svc", "alice.family.name"), obs.Num("mem_mib", 64))
		tr.Instant(0, "activation", "claim_ip", obs.Str("svc", "alice.family.name"))
		tr.End(sp, obs.Str("status", "ready"))
	}
	b.StopTimer()
	if tr.Len() == 0 {
		b.Fatal("tracer recorded nothing")
	}
}

// BenchmarkRegistrySnapshot freezes a board's registry with the disk
// tier on — the widest registry the system builds — over an empty
// directory, so the mirrors it reads cost nothing and what is timed is
// the snapshot itself. A Stats verb takes one per board plus the
// cluster's.
func BenchmarkRegistrySnapshot(b *testing.B) {
	reg := core.New(core.WithDisk(blockdev.DefaultConfig())).Reg
	rows := 0
	b.ReportAllocs()
	for b.Loop() {
		s := reg.Snapshot()
		rows = len(s.Counters) + len(s.Gauges)
	}
	b.ReportMetric(float64(rows), "rows")
}
