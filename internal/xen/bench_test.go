package xen

import (
	"testing"

	"jitsu/internal/xenstore"
)

// The layer's own bench (ROADMAP perf ledger): `make bench` runs it
// beside the root package's and benchjson files it under "xen".

// BenchmarkCreateDestroy is one cold start's toolstack work and its
// undoing — build and vif transactions, then the destroy transaction —
// beside 32 resident domains: the shape of the repository benchmark's
// xen.probe.create_destroy_r32.
func BenchmarkCreateDestroy(b *testing.B) {
	eng, hyp := newHost(xenstore.JitsuReconciler{}, CubieboardARM())
	ts := NewToolstack(hyp, OptimisedOpts())
	create := func(name string, then func(*Domain)) {
		ts.CreateDomain(DomainConfig{Name: name, Kind: GuestUnikernel, MemMiB: 16, ImageMiB: 1},
			func(d *Domain, err error) {
				if err != nil {
					b.Fatal(err)
				}
				then(d)
			})
		eng.Run()
	}
	for i := 0; i < 32; i++ {
		create("res"+string(rune('A'+i)), func(*Domain) {})
	}
	b.ReportAllocs()
	for b.Loop() {
		create("probe", func(d *Domain) { ts.DestroyDomain(d.ID, func(error) {}) })
	}
}

// TestCreateDestroyAllocs pins BenchmarkCreateDestroy's cycle with no
// resident domains, the shape of xen.probe.create_destroy_r0: the
// toolstack's share is one txRun per transaction step, one creation and
// the destroy's one closure.
func TestCreateDestroyAllocs(t *testing.T) {
	eng, hyp := newHost(xenstore.JitsuReconciler{}, CubieboardARM())
	ts := NewToolstack(hyp, OptimisedOpts())
	got := testing.AllocsPerRun(100, func() {
		ts.CreateDomain(DomainConfig{Name: "probe", Kind: GuestUnikernel, MemMiB: 16, ImageMiB: 1},
			func(d *Domain, err error) {
				if err != nil {
					t.Fatal(err)
				}
				ts.DestroyDomain(d.ID, func(error) {})
			})
		eng.Run()
	})
	want := 70.0
	if raceEnabled {
		want++ // a child slice that grows
	}
	if got > want {
		t.Errorf("create+destroy: %v allocs, want <= %v", got, want)
	}
}
