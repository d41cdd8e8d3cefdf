package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"jitsu/internal/obs"
)

// TestChurnShape asserts the migration contract: under the same trace
// and the same membership schedule, live migration keeps the post-leave
// p95 time-to-first-response on the warm path while the
// preempt-and-reboot baseline pays boot latency behind every departure.
func TestChurnShape(t *testing.T) {
	r := Churn(75 * time.Second)
	if !strings.Contains(r.Output, "post-leave-p95") {
		t.Fatalf("missing table: %s", r.Output)
	}
	assertNoClientErrors(t, r)
	mig := r.Series["churn-migrate post-leave"]
	pre := r.Series["churn-preempt post-leave"]
	if mig.Len() == 0 || pre.Len() == 0 {
		t.Fatal("empty post-leave series")
	}
	// Identical trace → identical sample counts in the churn windows.
	if mig.Len() != pre.Len() {
		t.Errorf("post-leave samples: migrate %d vs preempt %d, want equal", mig.Len(), pre.Len())
	}
	mp95, pp95 := mig.Summarize().Percentile(0.95), pre.Summarize().Percentile(0.95)
	if mp95 >= pp95 {
		t.Errorf("migrate post-leave p95 (%v) not better than preempt (%v)", mp95, pp95)
	}
	// The win must be structural — warm path vs rebooting — not noise.
	if mp95 > pp95/5 {
		t.Errorf("migrate post-leave p95 (%v) less than 5x better than preempt (%v)", mp95, pp95)
	}
	if mp95 > 20*time.Millisecond {
		t.Errorf("migrate post-leave p95 = %v, want warm-path ms", mp95)
	}
	// Away from the leave windows both systems serve warm.
	if r.Series["churn-migrate"].Summarize().Percentile(0.5) > 20*time.Millisecond {
		t.Errorf("migrate overall p50 = %v, want warm-path ms", r.Series["churn-migrate"].Summarize().Percentile(0.5))
	}
}

// TestChurnDeterminism is the in-repo twin of the CI determinism gate:
// the same seed must reproduce every series bit-for-bit, membership
// churn, gossip and migrations included.
func TestChurnDeterminism(t *testing.T) {
	a := Churn(45*time.Second, WithTracing())
	b := Churn(45*time.Second, WithTracing())
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
	// The trace streams are part of the same contract: both runs must
	// export byte-identical Chrome traces, not just matching latencies.
	if len(a.Traces) == 0 {
		t.Fatal("churn attached no tracers")
	}
	for name, ta := range a.Traces {
		tb := b.Traces[name]
		if tb == nil {
			t.Fatalf("trace %q missing from second run", name)
		}
		if ta.Len() == 0 {
			t.Errorf("trace %q recorded no events", name)
		}
		if ta.Fingerprint() != tb.Fingerprint() {
			t.Errorf("trace %q not bit-identical across runs", name)
		}
		var ba, bb bytes.Buffer
		if err := obs.WriteChromeTrace(&ba, ta); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteChromeTrace(&bb, tb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
			t.Errorf("trace %q Chrome export differs across runs", name)
		}
	}
}
