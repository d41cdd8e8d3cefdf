package cluster

import (
	"cmp"
	"math"
	"slices"

	"jitsu/internal/core"
)

// PoolManager keeps each service's warm pool at its target size: K
// pre-booted replicas, where K follows an EWMA of the observed arrival
// rate scaled by the expected boot time. Hot services therefore skip
// the cold-start path entirely; services that go quiet are reclaimed so
// their memory returns to the boards.
//
// The manager is event-driven, not periodic: it reconciles on every
// directory arrival (and on registration), so the simulation's event
// queue still drains and runs stay deterministic.
type PoolManager struct {
	c *Cluster
	// Prewarms counts speculative boots (not client-driven).
	Prewarms uint64
	// Reclaims counts replicas taken out of the warm pool because it
	// shrank — demotions (also counted in Cluster.Demotions) and
	// evictions both.
	Reclaims uint64
}

func newPoolManager(c *Cluster) *PoolManager { return &PoolManager{c: c} }

// target computes the warm-pool size for e right now. The EWMA rate is
// additionally clamped by the time since the last arrival, so a service
// that goes quiet decays toward zero even though EWMA updates only
// happen on arrivals; MinWarm floors the result.
func (pm *PoolManager) target(e *Entry) int {
	cfg := pm.c.Cfg
	r := e.effectiveRate(pm.c.eng.Now())
	if r < cfg.minRate {
		r = 0
	}
	k := int(math.Ceil(r * bootEstimate.Seconds() * cfg.warmFactor))
	if r > 0 && k < 1 {
		k = 1
	}
	if k < e.MinWarm {
		k = e.MinWarm
	}
	if k > cfg.maxWarmPerService {
		k = cfg.maxWarmPerService
	}
	return k
}

// reconcileAll reconciles every service's pool against its current
// target, after each placement decision; cheap for the handful of
// services an edge cluster hosts. pinned (may be nil) is the placement
// the in-flight query was just answered with, which must survive this
// pass even if its pool shrank (the client's SYN for it is on the wire).
func (pm *PoolManager) reconcileAll(pinned *Placement) {
	for e := range pm.c.dir.walk {
		pm.reconcile(e, pinned)
	}
}

// reconcile prewarms or reclaims replicas of e until ready+launching
// matches the target. Prewarms place via the service's own policy,
// skipping boards that already host a live replica; shrink reclaims,
// never touching pinned.
func (pm *PoolManager) reconcile(e *Entry, pinned *Placement) {
	if e.moved {
		// The service now lives on another cluster; the draining replica
		// here is neither prewarmed nor reclaimed — its delayed
		// Unregister retires it.
		return
	}
	e.WarmTarget = pm.target(e)
	alive := 0
	for _, p := range e.Replicas {
		// A live migration is one replica (its source), or the pool
		// looks over-provisioned and reclaims a bystander. A replica on
		// disk cannot serve until promoted, so it is not alive either.
		if p.in(slotOpen|slotSource) && (p.Svc.State.Booted() || p.Svc.State == core.StateLaunching) {
			alive++
		}
	}
	for alive < e.WarmTarget {
		idx := pm.c.prewarmPick(e)
		if idx < 0 {
			return // no capacity anywhere; try again on the next arrival
		}
		p := e.Replicas[idx]
		if !pm.c.Boards[idx].Jitsu.Summon(p.Svc, core.Summon{Via: TriggerWarmPool}).Served() {
			return
		}
		pm.Prewarms++
		alive++
	}
	if alive > e.WarmTarget {
		pm.shrink(e, pinned, &alive)
	}
}

// prewarmPick is the board a prewarm of e boots its replica on, by the
// service's own policy over the boards whose replica is neither booted
// nor launching, or -1 when there is none. The pool's growth and the
// speculative Activate verb both ask it.
func (c *Cluster) prewarmPick(e *Entry) int {
	return e.Policy.Pick(c.views(e, func(i int) bool {
		st := e.Replicas[i].Svc.State
		return st.Booted() || st == core.StateLaunching
	}))
}

// shrink takes the pool back down to target, least-recently-used
// replica first (ties broken toward the higher board index, so board 0
// — which also fields the DNS traffic — stays warm longest), each
// through Jitsu.Reclaim, which takes only what the reclaim rule allows.
func (pm *PoolManager) shrink(e *Entry, pinned *Placement, alive *int) {
	var cands []*Placement
	for _, p := range e.Replicas {
		if p.in(slotOpen) && p != pinned && p.Svc.State.Booted() {
			cands = append(cands, p)
		}
	}
	slices.SortFunc(cands, func(a, b *Placement) int {
		return cmp.Or(cmp.Compare(a.Svc.LastActivity(), b.Svc.LastActivity()), b.Board-a.Board)
	})
	for _, p := range cands {
		if *alive <= e.WarmTarget {
			return
		}
		reclaimed, demoted := pm.c.Boards[p.Board].Jitsu.Reclaim(p.Svc)
		if demoted {
			pm.c.Demotions++
		}
		if reclaimed {
			pm.Reclaims++
			*alive--
		}
	}
}
