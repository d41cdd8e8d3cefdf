package core

import (
	"math"
	"time"

	"jitsu/internal/sim"
)

// PrewarmTrigger is a predictive activation frontend — the proof that a
// frontend needs no inbound packet at all. It observes client-driven
// firings through the Activation machine, learns each service's
// recurring inter-arrival gap (an EWMA with a mean-absolute-deviation
// jitter bound), and summons the service prewarmLead (2 s) ahead of
// the predicted next arrival. A service whose visitors return on a
// routine — the home-hub check-in every morning, the sensor posting
// every ten seconds — then meets every "first" request of a visit warm,
// even though its idle reaper shut it down in between.
//
// The trigger is speculative on purpose: its firings never count as
// cold starts, never refuse (a bad prediction wastes one boot, nothing
// else), and a noisy arrival pattern disarms it until the deviation
// settles again. Its model is fixed: EWMA weight 0.5, two gaps before
// the first prediction, disarmed while the deviation exceeds half the
// gap, and firings within 1 s of each other are one visit.
type PrewarmTrigger struct {
	// Predictions counts speculative summons fired.
	Predictions uint64
	// Hits counts client arrivals that found their service ready with a
	// prediction armed — the prewarm paid off.
	Hits uint64
	// Misses counts client arrivals that still found their service
	// stopped although a prediction was armed (the visitor came too
	// early, or the pattern shifted).
	Misses uint64

	b     *Board
	state map[*Service]*prewarmState
}

// TriggerPrewarm is the predictive frontend's name.
const TriggerPrewarm = "prewarm"

// The prewarm model (see PrewarmTrigger).
const (
	prewarmLead       = 2 * time.Second // covers a cold boot plus the tolerated jitter
	prewarmAlpha      = 0.5             // EWMA weight: recent visits dominate
	prewarmMinSamples = 2
	prewarmMaxJitter  = 0.5
	// prewarmMinGap groups firings into visits: the SYN racing its own
	// DNS answer, or a burst of requests, is not a recurrence signal.
	prewarmMinGap = time.Second
)

type prewarmState struct {
	last    sim.Duration // virtual time of the previous client arrival
	gap     float64      // EWMA inter-arrival gap, seconds
	dev     float64      // EWMA absolute deviation of the gap, seconds
	samples int          // gaps observed
	timer   sim.Event    // pending prediction, if armed
	armed   bool
}

// NewPrewarmTrigger attaches a predictive frontend to board b as an
// observer of its Activation machine's client-driven firings.
func NewPrewarmTrigger(b *Board) *PrewarmTrigger {
	t := &PrewarmTrigger{b: b, state: make(map[*Service]*prewarmState)}
	b.Jitsu.Activation().Observe(t.observe)
	return t
}

// observe feeds one firing into the per-service arrival model. Only
// client-driven firings (ColdStart) are arrivals; the trigger's own
// speculative summons and control-plane pokes are not.
func (t *PrewarmTrigger) observe(svc *Service, s Summon, d Decision) {
	if !s.ColdStart || s.Via == TriggerPrewarm {
		return
	}
	now := t.b.Eng.Now()
	st := t.state[svc]
	if st == nil {
		st = &prewarmState{last: now}
		t.state[svc] = st
		return
	}
	if now-st.last < prewarmMinGap {
		return // same visit: e.g. the SYN racing its own DNS answer
	}
	if st.armed {
		// Score the armed prediction against what this visit found.
		if d == DecisionColdStart || d == DecisionNoMemory {
			t.Misses++
		} else {
			t.Hits++
		}
	}
	gap := (now - st.last).Seconds()
	st.last = now
	if st.samples == 0 {
		st.gap = gap
	} else {
		st.dev = (1-prewarmAlpha)*st.dev + prewarmAlpha*math.Abs(gap-st.gap)
		st.gap = (1-prewarmAlpha)*st.gap + prewarmAlpha*gap
	}
	st.samples++
	t.rearm(svc, st, now)
}

// rearm schedules (or cancels) the next prediction for svc.
func (t *PrewarmTrigger) rearm(svc *Service, st *prewarmState, now sim.Duration) {
	t.disarm(st)
	if st.samples < prewarmMinSamples || st.dev > prewarmMaxJitter*st.gap {
		return // not enough evidence, or the pattern is too noisy
	}
	next := now + sim.Duration(st.gap*float64(time.Second))
	fireAt := next - prewarmLead
	if fireAt <= now {
		// The gap is shorter than the lead: the service never has time
		// to go cold, so there is nothing to predict.
		return
	}
	st.armed = true
	st.timer = t.b.Eng.At(fireAt, func() {
		st.timer = sim.Event{}
		t.predict(svc, st)
	})
}

// predict fires the speculative summon for an armed prediction.
func (t *PrewarmTrigger) predict(svc *Service, st *prewarmState) {
	if !svc.State.NeedsLaunch() {
		return // still warm; the reaper never fired
	}
	t.Predictions++
	// Speculative: no cold-start accounting, no refusal surface. An
	// out-of-memory board simply skips the prewarm.
	t.b.Jitsu.Summon(svc, Summon{Via: TriggerPrewarm})
}

// disarm cancels a pending prediction.
func (t *PrewarmTrigger) disarm(st *prewarmState) {
	if st.armed {
		t.b.Eng.Cancel(st.timer)
		st.timer = sim.Event{}
	}
	st.armed = false
}
