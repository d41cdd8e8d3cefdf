package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestScalingShape asserts the control-plane contract: at 4 boards the
// cluster's p95 time-to-first-response beats the Fleet failover
// baseline decisively, and at 1 board the scheduler refuses no more
// than the baseline does (preemption keeps the hot set placed).
func TestScalingShape(t *testing.T) {
	r := Scaling([]int{1, 4}, 90*time.Second)
	if !strings.Contains(r.Output, "boards") {
		t.Fatalf("missing table: %s", r.Output)
	}
	assertNoClientErrors(t, r)

	fleet4 := r.Series["fleet@4"]
	cluster4 := r.Series["cluster@4"]
	if fleet4.Len() == 0 || cluster4.Len() == 0 {
		t.Fatal("empty series at 4 boards")
	}
	fp95, cp95 := fleet4.Summarize().Percentile(0.95), cluster4.Summarize().Percentile(0.95)
	if cp95 >= fp95 {
		t.Errorf("cluster p95 (%v) not better than fleet p95 (%v) at 4 boards", cp95, fp95)
	}
	// The win must be structural (warm pools vs repeated cold starts),
	// not a few ms of walk latency.
	if cp95 > fp95/2 {
		t.Errorf("cluster p95 (%v) less than 2x better than fleet (%v)", cp95, fp95)
	}

	// At 1 board both are capacity-limited; the scheduler must serve at
	// least as many requests as the SERVFAIL-walking baseline.
	if r.Series["cluster@1"].Len() < r.Series["fleet@1"].Len() {
		t.Errorf("cluster served %d at 1 board, fleet served %d",
			r.Series["cluster@1"].Len(), r.Series["fleet@1"].Len())
	}
}
