package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestFederationShape asserts the tentpole contract: the 4x4 federation
// recovers its post-skew p95 to the warm path (within sight of the flat
// 16-board cluster that absorbs the skew with raw capacity) with no
// operator call, while the same federation with the rebalance
// machinery frozen keeps refusing — and the root's state stays
// O(clusters) while the flat directory carries every service row.
func TestFederationShape(t *testing.T) {
	r := Federation(60 * time.Second)
	if !strings.Contains(r.Output, "root-rows") {
		t.Fatalf("missing table: %s", r.Output)
	}
	assertNoClientErrors(t, r)
	flatLate := r.Series["flat-1x16 post-skew-late"]
	fedLate := r.Series["fed-4x4 post-skew-late"]
	fedEarly := r.Series["fed-4x4 post-skew-early"]
	frozenLate := r.Series["fed-4x4-norebalance post-skew-late"]
	for name, s := range map[string]interface{ Len() int }{
		"flat late": flatLate, "fed late": fedLate, "fed early": fedEarly, "frozen late": frozenLate,
	} {
		if s.Len() == 0 {
			t.Fatalf("empty series: %s", name)
		}
	}
	// Recovery: the late window runs warm...
	if p := fedLate.Summarize().Percentile(0.95); p > 20*time.Millisecond {
		t.Errorf("fed post-skew-late p95 = %v, want warm-path ms", p)
	}
	// ...after an early window dominated by the overload.
	if e, l := fedEarly.Summarize().Percentile(0.95), fedLate.Summarize().Percentile(0.95); e < 10*l {
		t.Errorf("fed early p95 (%v) not structurally above late p95 (%v): no skew to recover from?", e, l)
	}
	// The frozen federation does not recover.
	if p := frozenLate.Summarize().Percentile(0.95); p < 20*fedLate.Summarize().Percentile(0.95) {
		t.Errorf("frozen federation late p95 (%v) recovered without the rebalance machinery", p)
	}
	// Recovery came from cross-cluster moves, not an explicit call.
	if !strings.Contains(r.Output, "xmigs") {
		t.Error("missing cross-migration column")
	}
}

// TestFedSpillSkewDrains pins the fix for the crash spill plus skew
// shedding once caused: a launch that lands after its service was
// retired destroyed the guest with a nil callback, and the destroy's
// completion dereferenced it. The 4x4 / 192 MiB federation runs with
// both rebalance mechanisms on over sixteen seeds; each must drain, book
// every arrival exactly once, and lose no client. Seed 3 once booked an
// error: a warm-pool shrink evicted a replica 19 µs after Synjitsu handed
// it the client's connection, with the reply still unacknowledged, and
// the client timed out 30 s later. Seed 11 once booked one too: a raw
// SYN's launch failed on memory, and the connection Synjitsu had
// parked for it waited out its timeout although memory freed a second
// later. A launch that fails or that admission refuses now leaves the
// activation firing again on the parked connection's behalf until a
// launch hands it off.
func TestFedSpillSkewDrains(t *testing.T) {
	const h = 45 * time.Second
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			trace := fedTrace(seed, h, 2*h/5)
			o := runFedFederation("fed-4x4", true, seed, trace, h, 2*h/5)
			if booked := o.lat.Len() + o.refused + o.errs; booked != len(trace) {
				t.Errorf("%d arrivals, %d booked (served %d, refused %d, errors %d)",
					len(trace), booked, o.lat.Len(), o.refused, o.errs)
			}
			if o.errs != 0 {
				t.Errorf("%d client errors, want 0", o.errs)
			}
		})
	}
}

// TestFederationDeterminism is the in-repo twin of the CI determinism
// gate for the federation experiment: same seeds, bit-identical series —
// summary gossip, delegation, spills and cross-cluster migrations
// included.
func TestFederationDeterminism(t *testing.T) {
	a := Federation(45 * time.Second)
	b := Federation(45 * time.Second)
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		t.Fatalf("fingerprints differ across identical runs: %x vs %x", fa, fb)
	}
	for name, sa := range a.Series {
		sb := b.Series[name]
		if sb == nil {
			t.Fatalf("series %q missing from second run", name)
		}
		if FingerprintSeries(sa) != FingerprintSeries(sb) {
			t.Errorf("series %q not bit-identical across runs", name)
		}
	}
	if a.Output != b.Output {
		t.Error("rendered output differs across identical runs")
	}
}
