package cluster

import (
	"sort"

	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/metrics"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// Directory is the cluster-wide service directory: the single
// authoritative view of where every service's replicas live and how hot
// each service is. It is the hierarchical-summary layer the MDS2-style
// directory literature describes — per-board Jitsu directories remain
// the leaves, the Directory aggregates them for the scheduler.
type Directory struct {
	entries map[string]*Entry
	byIP    map[netstack.IP]*Placement
}

func newDirectory() *Directory {
	return &Directory{
		entries: make(map[string]*Entry),
		byIP:    make(map[netstack.IP]*Placement),
	}
}

// Lookup finds a cluster service by (canonicalised) name.
func (d *Directory) Lookup(name string) *Entry {
	return d.entries[dns.CanonicalName(name)]
}

// Entries returns all cluster services sorted by name.
func (d *Directory) Entries() []*Entry {
	out := make([]*Entry, 0, len(d.entries))
	for _, e := range d.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Placement is one replica slot: a service registered on one board's
// local Jitsu directory.
type Placement struct {
	Board int
	Svc   *core.Service
	// pending marks a boot scheduled behind an in-flight preemption:
	// the replica is still Stopped, but its board's Synjitsu is already
	// fielding the SYNs the DNS answer attracted.
	pending bool
	// pendingReady queues completion hooks that arrived while the boot
	// was still waiting behind the preemption; the deferred summon
	// drains it (with an error if the freed memory was lost meanwhile).
	pendingReady []func(error)
	// migrating marks the source of an in-flight live migration: it
	// keeps serving (pre-copy), but reclaim and preemption must leave it
	// alone until the switchover completes (including the drain).
	migrating bool
	// draining marks a migrated-out source between switchover and its
	// delayed stop: no new DNS answer names it, but a client answered
	// just before the switchover can still connect.
	draining bool
	// reserved marks a slot claimed as a migration destination, from
	// the pick until the switchover: no placement, prewarm or second
	// migration may take it, and the pool manager counts the migration
	// pair (ready source + reserved destination) as one replica.
	reserved bool
	// gone marks a slot whose board departed: never served again.
	gone bool
	// lastAnswered is when this replica's IP last went out in a DNS
	// answer; the preemptor spares recently answered replicas so it
	// never tears down a connection that is still arriving.
	lastAnswered sim.Duration
}

// replicaOn returns e's replica slot on board id, nil when the board
// has no (live) slot — it joined after a departure retired the slot, or
// the slice simply doesn't reach that id yet.
func replicaOn(e *Entry, id int) *Placement {
	if id >= len(e.Replicas) {
		return nil
	}
	p := e.Replicas[id]
	if p == nil || p.gone {
		return nil
	}
	return p
}

// Entry is one service as the cluster sees it: its per-board replicas,
// its placement policy, and the warm-pool control state.
type Entry struct {
	Name string
	// Base is the registration template; each replica carries a
	// board-specific IP derived from it.
	Base core.ServiceConfig
	// Policy picks boards for cold placements and prewarms.
	Policy Policy
	// Replicas is indexed by board.
	Replicas []*Placement

	// MinWarm is a floor on warm replicas regardless of observed rate.
	MinWarm int
	// moved marks a service handed to another cluster (federation spill
	// or skew shed) that is still draining here: the remaining replica
	// keeps serving connections answered before the switchover, but the
	// pool manager freezes it, the summary bloom omits it, and delegated
	// resolutions redirect to the new home.
	moved bool
	// WarmTarget is the pool size the EWMA currently asks for.
	WarmTarget int
	// Refused counts cluster-wide SERVFAILs: queries no board could take.
	Refused uint64

	// Arrival-rate estimation (EWMA over instantaneous rates).
	rate        float64
	lastArrival sim.Duration
	arrivals    uint64
	// rr spreads warm hits across ready replicas.
	rr int
}

// Rate returns the current EWMA arrival-rate estimate in arrivals/sec.
func (e *Entry) Rate() float64 { return e.rate }

// ready returns the replicas currently able to serve — booted in either
// memory tier (Running or WarmMemory). Slots on departed boards,
// draining migration sources and disk-resident replicas never qualify.
func (e *Entry) ready() []*Placement {
	var out []*Placement
	for _, p := range e.Replicas {
		if p != nil && !p.gone && !p.draining && p.Svc.State.Booted() {
			out = append(out, p)
		}
	}
	return out
}

// onDisk returns the disk-resident replicas (cold-on-disk tier), in
// board order.
func (e *Entry) onDisk() []*Placement {
	var out []*Placement
	for _, p := range e.Replicas {
		if p != nil && !p.gone && !p.draining && p.Svc.State == core.StateColdDisk {
			out = append(out, p)
		}
	}
	return out
}

// launching returns a replica whose boot is in flight (or queued behind
// a preemption), if any.
func (e *Entry) launching() *Placement {
	for _, p := range e.Replicas {
		if p == nil || p.gone {
			continue
		}
		if p.Svc.State == core.StateLaunching || p.pending {
			return p
		}
	}
	return nil
}

// effectiveRate is the EWMA estimate clamped by the time since the last
// arrival, so it decays between visits even though updates only happen
// on arrivals. A never-seen service rates zero.
func (e *Entry) effectiveRate(now sim.Duration) float64 {
	if e.arrivals == 0 {
		return 0
	}
	r := e.rate
	if gap := (now - e.lastArrival).Seconds(); gap > 0 && 1/gap < r {
		r = 1 / gap
	}
	return r
}

// Totals is the cluster-wide sum of one service's per-replica counters —
// the aggregation the per-board directories cannot provide on their own.
type Totals struct {
	Name         string
	Launches     uint64
	ColdStarts   uint64
	Handoffs     uint64
	ServFails    uint64 // per-board refusals (fleet-style) summed over replicas
	Reaps        uint64
	Restores     uint64 // launches that replayed a migration checkpoint
	DiskRestores uint64 // launches that paged a checkpoint in from disk
	Demotions    uint64 // checkpoint-to-disk evictions of booted replicas
	Refused      uint64 // cluster-wide SERVFAILs issued by the scheduler
	Ready        int    // replicas currently serving
	OnDisk       int    // replicas parked on the disk tier
	WarmTarget   int
}

// ServiceTotals aggregates every service's counters across all boards,
// sorted by name. Slots on departed boards still contribute their
// history (the service *did* pay those launches).
func (c *Cluster) ServiceTotals() []Totals {
	var out []Totals
	for _, e := range c.dir.Entries() {
		t := Totals{Name: e.Name, Refused: e.Refused, WarmTarget: e.WarmTarget}
		for _, p := range e.Replicas {
			if p == nil {
				continue
			}
			t.Launches += p.Svc.Launches
			t.ColdStarts += p.Svc.ColdStarts
			t.Handoffs += p.Svc.Handoffs
			t.ServFails += p.Svc.ServFails
			t.Reaps += p.Svc.Reaps
			t.Restores += p.Svc.Restores
			t.DiskRestores += p.Svc.DiskRestores
			t.Demotions += p.Svc.Demotions
			if !p.gone && p.Svc.State.Booted() {
				t.Ready++
			}
			if !p.gone && p.Svc.State == core.StateColdDisk {
				t.OnDisk++
			}
		}
		out = append(out, t)
	}
	return out
}

// CounterTable renders the aggregated counters as a metrics table, one
// row per service plus a cluster-wide total row.
func (c *Cluster) CounterTable() *metrics.Table {
	tab := metrics.NewTable("cluster counters",
		"service", "launches", "coldstarts", "handoffs", "servfails", "reaps", "restores", "disk-restores", "demotions", "refused", "ready", "on-disk", "warm-target")
	var sum Totals
	for _, t := range c.ServiceTotals() {
		tab.AddRow(t.Name, t.Launches, t.ColdStarts, t.Handoffs, t.ServFails, t.Reaps, t.Restores, t.DiskRestores, t.Demotions, t.Refused, t.Ready, t.OnDisk, t.WarmTarget)
		sum.Launches += t.Launches
		sum.ColdStarts += t.ColdStarts
		sum.Handoffs += t.Handoffs
		sum.ServFails += t.ServFails
		sum.Reaps += t.Reaps
		sum.Restores += t.Restores
		sum.DiskRestores += t.DiskRestores
		sum.Demotions += t.Demotions
		sum.Refused += t.Refused
		sum.Ready += t.Ready
		sum.OnDisk += t.OnDisk
	}
	tab.AddRow("TOTAL", sum.Launches, sum.ColdStarts, sum.Handoffs, sum.ServFails, sum.Reaps, sum.Restores, sum.DiskRestores, sum.Demotions, sum.Refused, sum.Ready, sum.OnDisk, "")
	return tab
}
