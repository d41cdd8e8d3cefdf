package experiments

import "testing"

// TestPrewarmShape asserts the predictive trigger's contract: once it
// has learnt each service's visit gap, steady-state visits meet a warm
// service, while without it every visit pays a cold boot. Neither arm
// loses a client.
func TestPrewarmShape(t *testing.T) {
	r := Prewarm(40)
	assertNoClientErrors(t, r)
	off := r.Series["prewarm-off steady"].Summarize().Percentile(0.95)
	on := r.Series["prewarm-on steady"].Summarize().Percentile(0.95)
	if on > off/10 {
		t.Errorf("steady-state p95 with the trigger = %v, without = %v: want the warm path, 10x below", on, off)
	}
}
