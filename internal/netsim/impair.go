package netsim

import (
	"math/rand"
	"time"

	"jitsu/internal/sim"
)

// Fault injection lives in the link, between the NICs — the netem
// shape: a healthy Link delivers every frame after latency +
// serialisation, an impaired Link additionally consults a per-direction
// Impairment before scheduling the delivery. Every random decision
// (loss, jitter, reorder, duplication) is drawn from a per-link RNG
// seeded by the caller and advanced in deterministic event order on the
// sim virtual clock, so a faulty run is exactly as bit-reproducible as
// a perfect one.

// Impairment describes one direction of a hostile link. The zero value
// is a perfect wire.
type Impairment struct {
	// Loss is the probability (0..1) that a frame is silently dropped.
	Loss float64
	// Latency is extra one-way propagation added to every frame.
	Latency sim.Duration
	// Jitter adds a uniform [0, Jitter) extra delay per frame.
	Jitter sim.Duration
	// ReorderProb is the probability a frame is additionally held for
	// ReorderBy, letting frames sent after it overtake it.
	ReorderProb float64
	// ReorderBy is the hold applied to reordered frames (default 1ms).
	ReorderBy sim.Duration
	// DupProb is the probability a frame is delivered twice (the copy
	// arrives one Jitter-draw later).
	DupProb float64
	// BitsPerSec throttles the direction below the link's native rate;
	// 0 leaves the link rate alone.
	BitsPerSec float64
}

// LinkStats counts what an impaired link did to the traffic that
// crossed it (both directions summed).
type LinkStats struct {
	// Delivered counts frames handed to the far port.
	Delivered uint64
	// Dropped counts frames lost to Loss or a partition.
	Dropped uint64
	// Duplicated counts extra copies delivered by DupProb.
	Duplicated uint64
	// Reordered counts frames held back by ReorderProb.
	Reordered uint64
}

// impairState is one direction's fault model: the impairment, its RNG,
// its partition flag, and its throttle serialisation point.
type impairState struct {
	imp         Impairment
	rng         *rand.Rand
	partitioned bool
	busy        sim.Duration // throttle: when this direction frees up
}

// state lazily allocates the per-direction fault state.
func (e *linkEnd) state() *impairState {
	if e.fault == nil {
		e.fault = &impairState{rng: rand.New(rand.NewSource(1))}
	}
	return e.fault
}

// Impair installs imp on both directions of the link, each with its own
// RNG stream derived from seed so the two directions' draws never
// interleave. Calling Impair again replaces the model and reseeds.
func (l *Link) Impair(imp Impairment, seed int64) {
	l.ImpairAtoB(imp, seed)
	l.ImpairBtoA(imp, seed+1)
}

// ImpairAtoB installs imp on the a->b direction only (the direction
// AEnd delivers). For a NIC attached via Attach/ConnectNIC this is the
// NIC's transmit direction.
func (l *Link) ImpairAtoB(imp Impairment, seed int64) {
	s := l.aEnd.state()
	s.imp = imp
	s.rng = rand.New(rand.NewSource(seed))
}

// ImpairBtoA installs imp on the b->a direction only — a NIC's receive
// direction when the NIC sits at the A end.
func (l *Link) ImpairBtoA(imp Impairment, seed int64) {
	s := l.bEnd.state()
	s.imp = imp
	s.rng = rand.New(rand.NewSource(seed))
}

// Partition cuts both directions: every frame is dropped (and counted)
// until Heal. The impairment model underneath is preserved.
func (l *Link) Partition() {
	l.aEnd.state().partitioned = true
	l.bEnd.state().partitioned = true
}

// PartitionAtoB cuts only the a->b direction — the asymmetric failure
// where one side can hear but not be heard.
func (l *Link) PartitionAtoB() { l.aEnd.state().partitioned = true }

// PartitionBtoA cuts only the b->a direction.
func (l *Link) PartitionBtoA() { l.bEnd.state().partitioned = true }

// Heal reconnects both directions, restoring whatever impairment (if
// any) was installed before the partition.
func (l *Link) Heal() {
	if l.aEnd.fault != nil {
		l.aEnd.fault.partitioned = false
	}
	if l.bEnd.fault != nil {
		l.bEnd.fault.partitioned = false
	}
}

// deliverImpaired runs one frame through the direction's fault model
// and returns the extra delay to add on top of the link's own
// latency/serialisation, or ok=false when the frame is dropped.
// wireBytes is the on-wire size the throttle charges (len(frame)
// except for bulk stand-in frames). Duplication is handled by
// scheduling the copy directly.
func (e *linkEnd) deliverImpaired(frame []byte, wireBytes int, baseDelay sim.Duration) (extra sim.Duration, ok bool) {
	s := e.fault
	l := e.link
	if s.partitioned {
		l.Stats.Dropped++
		return 0, false
	}
	im := s.imp
	if im.Loss > 0 && s.rng.Float64() < im.Loss {
		l.Stats.Dropped++
		return 0, false
	}
	extra = im.Latency
	if im.Jitter > 0 {
		extra += sim.Duration(s.rng.Int63n(int64(im.Jitter)))
	}
	if im.BitsPerSec > 0 {
		ser := sim.Duration(float64(wireBytes*8) / im.BitsPerSec * float64(time.Second))
		now := l.eng.Now()
		if s.busy < now {
			s.busy = now
		}
		s.busy += ser
		extra += s.busy - now
	}
	if im.ReorderProb > 0 && s.rng.Float64() < im.ReorderProb {
		hold := im.ReorderBy
		if hold <= 0 {
			hold = 1 * time.Millisecond
		}
		extra += hold
		l.Stats.Reordered++
	}
	if im.DupProb > 0 && s.rng.Float64() < im.DupProb {
		var dup sim.Duration
		if im.Jitter > 0 {
			dup = sim.Duration(s.rng.Int63n(int64(im.Jitter)))
		}
		l.Stats.Duplicated++
		e.scheduleDelivery(frame, baseDelay+extra+dup)
	}
	return extra, true
}
