package cluster

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"jitsu/internal/api"
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
//
// entries answers a lookup by name; ordered holds exactly the same
// entries sorted by name, so every sweep and every Stats aggregation
// walks a slice that needs no sorting. put and remove alone write either.
//
// Readers that neither register nor unregister range walk, which visits
// ordered where it lies; a sweep that sorts, or unregisters as it goes
// (shed, cluster removal, evacuation), takes the Entries copy. walking
// counts the walks in progress: put and remove panic under one, because
// shifting ordered beneath a walk would skip or repeat an entry silently.
type Directory struct {
	entries map[string]*Entry
	ordered []*Entry
	byIP    map[netstack.IP]*Placement
	walking int
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

// Entries returns all cluster services sorted by name. The slice is a
// copy: callers re-sort it, and unregister entries while ranging it.
func (d *Directory) Entries() []*Entry { return slices.Clone(d.ordered) }

// walk ranges the services in name order without copying them
// (for e := range d.walk). The body must not register or unregister.
func (d *Directory) walk(yield func(*Entry) bool) {
	d.walking++
	defer func() { d.walking-- }()
	for _, e := range d.ordered {
		if !yield(e) {
			return
		}
	}
}

// find is the position of name in ordered, or where it would go.
func (d *Directory) find(name string) (int, bool) {
	return slices.BinarySearchFunc(d.ordered, name, func(e *Entry, name string) int { return strings.Compare(e.Name, name) })
}

// put files e under its name, replacing a same-name entry.
func (d *Directory) put(e *Entry) {
	if d.walking > 0 {
		panic("cluster: register under an in-place directory walk (range Entries() instead)")
	}
	d.entries[e.Name] = e
	i, held := d.find(e.Name)
	if !held {
		d.ordered = slices.Insert(d.ordered, i, nil)
	}
	d.ordered[i] = e
}

// remove drops the entry filed under name, if any.
func (d *Directory) remove(name string) {
	if d.walking > 0 {
		panic("cluster: unregister under an in-place directory walk (range Entries() instead)")
	}
	if i, ok := d.find(name); ok {
		d.ordered = slices.Delete(d.ordered, i, i+1)
	}
	delete(d.entries, name)
}

// Placement is one replica slot: a service registered on one board's
// local Jitsu directory.
type Placement struct {
	Board int
	Svc   *core.Service
	// state is the slot's place in a move's life; mv is the move it
	// belongs to while slotSource, slotDraining or slotReserved. to
	// writes both.
	state slotState
	mv    *move
	// lastAnswered is when this replica's IP last went out in a DNS
	// answer; the preemptor spares recently answered replicas so it
	// never tears down a connection that is still arriving.
	lastAnswered sim.Duration
}

// slotState is one bit per state, so a set of states is one mask.
type slotState uint8

const (
	slotOpen     slotState = 1 << iota // an ordinary slot, whatever its replica's tier
	slotSource                         // a move copies it: it serves, but no reclaim, preemption or second move takes it
	slotDraining                       // switched over until retire: no new answer names it, an answered client may connect
	slotReserved                       // a move's destination until the switchover; the pool counts the pair as one
	slotGone                           // its board departed or its entry left: it never serves again

	slotHeld = slotOpen | slotSource | slotDraining | slotReserved // every state but gone
	slotLive = slotHeld &^ slotDraining                            // can hold a serving replica
)

var slotNames = [...]string{"open", "source", "draining", "reserved", "gone"}

func (s slotState) String() string { return slotNames[bits.TrailingZeros8(uint8(s))] }

// slotMoves lists the states each state may go to, besides slotGone,
// which every state may go to and none leaves.
var slotMoves = map[slotState]slotState{
	slotOpen:     slotSource | slotReserved, // move.start
	slotSource:   slotOpen | slotDraining,   // move.release, move.switchover
	slotReserved: slotOpen,                  // move.release, move.switchover
	slotDraining: slotOpen,                  // move.retire
}

// to moves the slot to state next, holding mv while it is in a move,
// and panics on a transition slotMoves does not list. A nil slot (no
// destination here) and a gone one take no write.
func (p *Placement) to(next slotState, mv *move) {
	switch {
	case p == nil || p.state == slotGone:
		return
	case next != slotGone && slotMoves[p.state]&next == 0:
		panic(fmt.Sprintf("cluster: %s slot on board %d cannot go %s", p.state, p.Board, next))
	}
	p.state, p.mv = next, mv
}

// in reports whether p is a slot in one of the states of set.
func (p *Placement) in(set slotState) bool { return p != nil && p.state&set != 0 }

// replicaOn returns e's replica slot on board id, nil when that slot is
// gone (its board departed) or the slice doesn't reach id yet.
func replicaOn(e *Entry, id int) *Placement {
	if id < len(e.Replicas) && e.Replicas[id].in(slotHeld) {
		return e.Replicas[id]
	}
	return nil
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

// ready reports whether the replica can serve now — booted in either
// memory tier (Running or WarmMemory). Callers range e.Replicas (board
// order) and ask each slot; nobody builds the list.
func (p *Placement) ready() bool { return p.in(slotLive) && p.Svc.State.Booted() }

// onDisk reports whether the replica is parked on its board's disk tier.
func (p *Placement) onDisk() bool { return p.in(slotLive) && p.Svc.State == core.StateColdDisk }

// readyCount is how many replicas can serve now.
func (e *Entry) readyCount() int {
	n := 0
	for _, p := range e.Replicas {
		if p.ready() {
			n++
		}
	}
	return n
}

// readyAt is the k-th ready replica in board order (nil past the last).
func (e *Entry) readyAt(k int) *Placement {
	for _, p := range e.Replicas {
		if p.ready() {
			if k--; k < 0 {
				return p
			}
		}
	}
	return nil
}

// transferSource is the replica whose state leaves with a service moving
// to another cluster: the first booted one, else the first parked on disk
// (its checkpoint moves without paging in); a slot already in a move,
// as its source or its destination, only when inFlight allows it.
func (e *Entry) transferSource(inFlight bool) *Placement {
	var parked *Placement
	for _, p := range e.Replicas {
		if !p.in(slotLive) || (!inFlight && p.state != slotOpen) {
			continue
		}
		if p.Svc.State.Booted() {
			return p
		}
		if parked == nil && p.Svc.State == core.StateColdDisk {
			parked = p
		}
	}
	return parked
}

// launching returns a replica whose boot is in flight (a preemption's
// boot is, from the moment its victim is reclaimed), if any.
func (e *Entry) launching() *Placement {
	for _, p := range e.Replicas {
		if p.in(slotHeld) && p.Svc.State == core.StateLaunching {
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
// the aggregation the per-board directories cannot provide on their own:
// the row Stats reports (State is the hottest tier any replica occupies,
// ServFails the per-board refusals) plus the scheduler's own columns.
type Totals struct {
	api.ServiceStats
	Refused    uint64 // cluster-wide SERVFAILs issued by the scheduler
	Ready      int    // replicas currently serving
	OnDisk     int    // replicas parked on the disk tier
	WarmTarget int
}

// totals sums e's per-replica counters. Slots on departed boards still
// contribute their history (the service *did* pay those launches).
func (e *Entry) totals() Totals {
	t := Totals{Refused: e.Refused, WarmTarget: e.WarmTarget}
	t.Name = e.Name
	for _, p := range e.Replicas {
		if p == nil {
			continue
		}
		t.Add(p.Svc.Counters)
		if p.state != slotGone && p.Svc.State.Booted() {
			t.Ready++
		}
		if p.state != slotGone && p.Svc.State == core.StateColdDisk {
			t.OnDisk++
		}
	}
	switch {
	case t.Ready > 0:
		t.State = core.StateRunning
	case t.OnDisk > 0:
		t.State = core.StateColdDisk
	}
	return t
}

// ServiceTotals aggregates every service's counters across all boards,
// sorted by name.
func (c *Cluster) ServiceTotals() []Totals {
	out := make([]Totals, 0, len(c.dir.ordered))
	for _, e := range c.dir.ordered {
		out = append(out, e.totals())
	}
	return out
}

// CounterTable renders the aggregated counters as a metrics table, one
// row per service plus a cluster-wide total row.
func (c *Cluster) CounterTable() *metrics.Table {
	tab := metrics.NewTable("cluster counters", slices.Concat([]string{"service"}, core.CounterNames[:],
		[]string{"refused", "ready", "on-disk", "warm-target"})...)
	row := func(t Totals, warmTarget any) {
		cells := []any{t.Name}
		for _, v := range t.Values() {
			cells = append(cells, v)
		}
		tab.AddRow(append(cells, t.Refused, t.Ready, t.OnDisk, warmTarget)...)
	}
	var sum Totals
	sum.Name = "TOTAL"
	for _, t := range c.ServiceTotals() {
		row(t, t.WarmTarget)
		sum.Add(t.Counters)
		sum.Refused += t.Refused
		sum.Ready += t.Ready
		sum.OnDisk += t.OnDisk
	}
	row(sum, "")
	return tab
}
