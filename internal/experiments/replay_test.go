package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"jitsu/internal/sim"
)

// The generators each experiment carried before they were folded onto
// poisson/byTime, kept verbatim as the reference: every committed seed
// must still produce the identical trace, draw for draw.

type refArrival struct {
	at         sim.Duration
	svc, visit int
}

func refSort(trace []refArrival) {
	sort.Slice(trace, func(i, j int) bool {
		if trace[i].at != trace[j].at {
			return trace[i].at < trace[j].at
		}
		return trace[i].svc < trace[j].svc
	})
}

func refScalingTrace(seed int64, horizon sim.Duration) []refArrival {
	rng := rand.New(rand.NewSource(seed))
	var trace []refArrival
	nsvc := scalingHotServices + scalingColdServices
	for s := 0; s < nsvc; s++ {
		mean := scalingHotMeanGap
		if s >= scalingHotServices {
			mean = scalingColdMeanGap
		}
		at := sim.Duration(rng.ExpFloat64() * float64(mean))
		for at < horizon {
			trace = append(trace, refArrival{at: at, svc: s})
			at += sim.Duration(rng.ExpFloat64() * float64(mean))
		}
	}
	refSort(trace)
	return trace
}

func refChurnTrace(seed int64, horizon sim.Duration) []refArrival {
	rng := rand.New(rand.NewSource(seed))
	var trace []refArrival
	for s := 0; s < churnServices; s++ {
		at := sim.Duration(rng.ExpFloat64() * float64(churnMeanGap))
		for at < horizon {
			trace = append(trace, refArrival{at: at, svc: s})
			at += sim.Duration(rng.ExpFloat64() * float64(churnMeanGap))
		}
	}
	refSort(trace)
	return trace
}

func refFedTrace(seed int64, horizon, skewAt sim.Duration) []refArrival {
	rng := rand.New(rand.NewSource(seed))
	var trace []refArrival
	for s := 0; s < fedExpServices; s++ {
		hot := fedHome(s) == 0
		at := sim.Duration(rng.ExpFloat64() * float64(fedExpColdGap))
		for at < horizon {
			if hot && at >= skewAt {
				break
			}
			trace = append(trace, refArrival{at: at, svc: s})
			at += sim.Duration(rng.ExpFloat64() * float64(fedExpColdGap))
		}
		if !hot {
			continue
		}
		at = skewAt + sim.Duration(rng.ExpFloat64()*float64(fedExpHotGap))
		for at < horizon {
			trace = append(trace, refArrival{at: at, svc: s})
			at += sim.Duration(rng.ExpFloat64() * float64(fedExpHotGap))
		}
	}
	refSort(trace)
	return trace
}

func refPrewarmTrace(seed int64, visits int) []refArrival {
	rng := rand.New(rand.NewSource(seed))
	var trace []refArrival
	for s := 0; s < prewarmServices; s++ {
		base := sim.Duration(s+1) * 2 * time.Second
		for i := 0; i < visits; i++ {
			jit := sim.Duration((rng.Float64()*2 - 1) * float64(prewarmJitter))
			trace = append(trace, refArrival{
				at: base + sim.Duration(i)*prewarmPeriod + jit, svc: s, visit: i})
		}
	}
	refSort(trace)
	return trace
}

func refHostileFlashTrace(seed int64, n int) []refArrival {
	rng := rand.New(rand.NewSource(seed))
	ats := make([]refArrival, n)
	at := 1 * time.Second
	for i := range ats {
		at += sim.Duration(rng.ExpFloat64() * float64(300*time.Millisecond) / float64(n))
		ats[i] = refArrival{at: at}
	}
	return ats
}

// TestTracesMatchOldGenerators replays every seed and scale Run commits
// to (quick and full) through the old and the folded generators and
// demands the same arrivals in the same order.
func TestTracesMatchOldGenerators(t *testing.T) {
	same := func(label string, got []arrival, want []refArrival, name func(svc int) string) {
		t.Helper()
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("%s: %d arrivals, old generator made %d", label, len(got), len(want))
		}
		for i, a := range got {
			if w := want[i]; a.at != w.at || a.svc != w.svc || a.visit != w.visit {
				t.Fatalf("%s: arrival %d = {at %v svc %d visit %d}, old generator made {at %v svc %d visit %d}",
					label, i, a.at, a.svc, a.visit, w.at, w.svc, w.visit)
			}
			if a.name != name(a.svc) {
				t.Fatalf("%s: arrival %d fetches %q, want %q", label, i, a.name, name(a.svc))
			}
		}
	}
	for _, n := range []int64{1, 2, 4, 8} {
		same(fmt.Sprintf("scaling@%d", n), scalingTrace(7000+n, 90*time.Second), refScalingTrace(7000+n, 90*time.Second), siteName)
	}
	for _, h := range []sim.Duration{45 * time.Second, 75 * time.Second} {
		same(fmt.Sprintf("churn %v", h), churnTrace(9000, h), refChurnTrace(9000, h), siteName)
	}
	for _, h := range []sim.Duration{45 * time.Second, 60 * time.Second} {
		same(fmt.Sprintf("federation %v", h), fedTrace(11000, h, h*2/5), refFedTrace(11000, h, h*2/5), siteName)
	}
	// A skew that never arrives inside the horizon still draws the same stream.
	same("federation, skew past horizon", fedTrace(11000, 30*time.Second, 40*time.Second), refFedTrace(11000, 30*time.Second, 40*time.Second), siteName)
	for _, visits := range []int{24, 40} {
		same(fmt.Sprintf("prewarm x%d", visits), prewarmTrace(11000, visits), refPrewarmTrace(11000, visits), siteName)
	}
	for _, n := range []int{30, 60} {
		same(fmt.Sprintf("hostile flash x%d", n), hostileFlashTrace(4100, n), refHostileFlashTrace(4100, n),
			func(int) string { return hostileFlashName })
	}
}

// assertNoClientErrors reads the "errs" column of r's table and fails
// for every arm that booked a client error: the experiments that call
// it inject no fault, so every fetch is served or refused.
func assertNoClientErrors(t *testing.T, r *Result) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(r.Output), "\n")
	col := slices.Index(strings.Fields(lines[0]), "errs")
	if col < 0 || len(lines) < 3 {
		t.Fatalf("%s: no errs column in\n%s", r.ID, r.Output)
	}
	for _, row := range lines[2:] {
		if f := strings.Fields(row); f[col] != "0" {
			t.Errorf("%s: errs = %s in row %q, want 0", r.ID, f[col], row)
		}
	}
}
