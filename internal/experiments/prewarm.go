package experiments

import (
	"math/rand"
	"time"

	"jitsu/internal/core"
	"jitsu/internal/metrics"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// The prewarm workload: services visited on a routine — a check-in
// roughly every ten seconds, jittered — but reaped after six idle
// seconds, so every visit's first request rides a fresh cold boot. The
// PrewarmTrigger learns the routine from the activation stream and
// boots each service just ahead of its predicted next visit; the same
// trace then lands on a warm unikernel almost every time. This is the
// frontend extensibility proof: no packet arrives, yet a frontend
// summons unikernels through exactly the seam DNS/SYN/conduit use.
const (
	prewarmServices = 3
	prewarmPeriod   = 10 * time.Second
	prewarmJitter   = 500 * time.Millisecond
	prewarmIdle     = 6 * time.Second
	// prewarmWarmup is how many visits the trigger needs before its
	// predictions arm; the "steady" series starts after them.
	prewarmWarmup = 3
)

// prewarmTrace builds the jittered periodic visit schedule, shared
// verbatim by the with- and without-trigger runs.
func prewarmTrace(seed int64, visits int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var trace []arrival
	for s := 0; s < prewarmServices; s++ {
		// Stagger the services so their boots don't synchronise.
		base := sim.Duration(s+1) * 2 * time.Second
		for i := 0; i < visits; i++ {
			jit := sim.Duration((rng.Float64()*2 - 1) * float64(prewarmJitter))
			trace = append(trace, arrival{
				at: base + sim.Duration(i)*prewarmPeriod + jit, svc: s, visit: i, name: siteName(s)})
		}
	}
	return byTime(trace)
}

type prewarmOutcome struct {
	tally       // lat is every served fetch; a lone board never refuses
	steady      *metrics.Series
	trace       *obs.Tracer
	cold        uint64
	predictions uint64
	hits        uint64
	misses      uint64
}

// runPrewarm replays the visit schedule with or without the trigger.
func runPrewarm(on, traced bool, seed int64, trace []arrival) *prewarmOutcome {
	label := "prewarm-off"
	if on {
		label = "prewarm-on"
	}
	// The optional flight recorder (WithTracing): the exported
	// activation spans must account for the cold-vs-warm p95 gap the
	// table reports. Nil when tracing is off — the run then measures
	// the same alloc-free hot path the bench gate ratchets.
	var tracer *obs.Tracer
	if traced {
		tracer = obs.NewTracer(1 << 14)
	}
	b := core.New(core.WithSeed(seed), core.WithTracer(tracer, 0))
	var trig *core.PrewarmTrigger
	if on {
		trig = core.NewPrewarmTrigger(b)
	}
	var svcs []*core.Service
	for s := 0; s < prewarmServices; s++ {
		sc := site(s, 0)
		sc.IdleTimeout = prewarmIdle
		svcs = append(svcs, b.Jitsu.Register(sc))
	}
	client := b.AddClient("visitor", netstack.IPv4(10, 0, 0, 9))

	out := &prewarmOutcome{
		tally:  tally{lat: &metrics.Series{Name: label}},
		steady: &metrics.Series{Name: label + " steady"},
		trace:  tracer,
	}
	replay(b.Eng, trace, boardFetch(b, client, 30*time.Second), func(a arrival, d sim.Duration, err error) {
		if out.add(d, err) && a.visit >= prewarmWarmup {
			out.steady.Add(d)
		}
	})
	b.Eng.Run()
	for _, svc := range svcs {
		out.cold += svc.ColdStarts
	}
	if trig != nil {
		out.predictions = trig.Predictions
		out.hits = trig.Hits
		out.misses = trig.Misses
	}
	return out
}

// Prewarm contrasts the same jittered periodic visit schedule with and
// without the predictive trigger: time-to-first-response per visit,
// overall and after the warm-up visits the trigger needs to learn the
// pattern.
func Prewarm(visits int, opts ...Option) *Result {
	cfg := applyOptions(opts)
	r := newResult("Prewarm", "predictive prewarm trigger vs cold boots on recurring visits")
	trace := prewarmTrace(11000, visits)
	off := runPrewarm(false, cfg.trace, 11100, trace)
	on := runPrewarm(true, cfg.trace, 11100, trace)

	tab := metrics.NewTable("",
		"policy", "n-ok", "errs", "p50", "p95", "steady-p50", "steady-p95", "coldstarts", "predictions", "hits", "misses")
	for _, o := range []*prewarmOutcome{off, on} {
		all, steady := o.lat.Summarize(), o.steady.Summarize()
		tab.AddRow(o.lat.Name, all.Len(), o.errs, all.P50(), all.P95(),
			steady.P50(), steady.P95(),
			o.cold, o.predictions, o.hits, o.misses)
		r.Series[o.lat.Name] = o.lat
		r.Series[o.steady.Name] = o.steady
		r.addTrace(o.lat.Name, o.trace)
	}
	r.Output = tab.String()
	r.addNote("both runs share one jittered periodic visit schedule; the visit period (10s) exceeds the idle timeout (6s), so without the trigger every visit pays a fresh cold boot")
	r.addNote("expected shape: the trigger needs a few visits to learn each service's gap, then boots it ~2s ahead of the predicted arrival — steady-state p95 drops from the cold-boot band (~300ms) to the warm path (~ms)")
	return r
}
