package cluster

import (
	"jitsu/internal/core"
	"jitsu/internal/dns"
)

// Trigger names the cluster reports into each board's Activation
// machine (core.Activation.Fired).
const (
	// TriggerCluster marks client-driven placements: the scheduler
	// answered a DNS query with this replica and summoned it.
	TriggerCluster = "cluster-dns"
	// TriggerWarmPool marks speculative boots by the pool manager.
	TriggerWarmPool = "warm-pool"
	// TriggerMigrate marks waits-for-ready fired by the migration path.
	TriggerMigrate = "migrate"
)

// frontDoor installs the cluster's DNS frontend on board 0: each query
// for a directory name is placed by the scheduler and answered with the
// chosen replica's address; every other name goes to board 0's own
// Jitsu hook. The launch itself goes through the chosen board's shared
// Activation machine — the same seam the per-board DNS, SYN and conduit
// frontends fire.
func (c *Cluster) frontDoor() {
	srv := c.front().DNS
	own := srv.Intercept
	srv.Intercept = func(name []byte, typ dns.Type) (dns.Verdict, *dns.RR) {
		e := c.dir.entries[string(name)]
		if e == nil || e.moved || (typ != dns.TypeA && typ != dns.TypeANY) {
			return own(name, typ)
		}
		p, _ := c.schedule(e, TriggerCluster, nil)
		if p == nil {
			return dns.VerdictServFail, nil
		}
		// Placement picks a replica per query: never served from the cache.
		c.answer = dns.RR{Name: e.Name, Type: dns.TypeA, Class: dns.ClassIN,
			TTL: e.Base.TTL, A: p.Svc.Cfg.IP}
		return dns.VerdictOnce, &c.answer
	}
}

// summon fires board idx's Activation machine for a client-driven
// placement, applying the cluster's refusal policy (the per-replica
// ServFail counter) on any non-served decision. via names the frontend
// that asked (the cluster's own DNS trigger, or a federation delegate);
// after (may be nil) is the replica a preemption just reclaimed for it.
func (c *Cluster) summon(p *Placement, via string, onReady func(error), after *core.Service) bool {
	dec := c.Boards[p.Board].Jitsu.Summon(p.Svc,
		core.Summon{Via: via, ColdStart: true, OnReady: onReady, After: after})
	if dec.Served() {
		return true
	}
	p.Svc.ServFails++
	return false
}
