// Package obs is the deterministic observability plane: a fixed-slot
// counter/gauge registry and a virtual-time span tracer whose ring
// buffer records structured events stamped exclusively from sim virtual
// time, so traces are bit-identical across seeded runs.
//
// The package is simulation-native: nothing here reads wall clocks,
// iterates maps during export, or allocates on the hot path. Counters
// and gauges are mirrors of state their subsystems own, read only at
// snapshot time; latencies (boot, restore, disk restore, demote) are
// spans on the tracer, which overwrites its oldest events once full and
// accounts for every drop. Registries snapshot to one plain struct
// (name-sorted) that api.StatsResponse carries whole; the sort is paid
// when a row is registered — the first snapshot after it — never per
// snapshot, which allocates one array per row kind, however many
// registries Rows.Freeze freezes at once, and nothing when it refills a
// Rows that held as many rows before.
//
// Naming convention: metric names are dot-paths,
// "<subsystem>.<thing>[_<unit>]" — e.g. "dns.cache_hits",
// "sim.pending", "activation.launches". Trace categories mirror the
// subsystem ("activation", "gossip", "migrate", "fed", "dns").
package obs

import (
	"slices"
	"strings"
)

// namedGauge is a read-at-snapshot mirror of state owned elsewhere
// (queue depths, epochs). The closure runs only when Snapshot does, so
// mirrored subsystems pay nothing on their hot paths.
type namedGauge struct {
	name string
	fn   func() int64
}

// namedCounter mirrors a counter owned by another subsystem.
type namedCounter struct {
	name string
	fn   func() uint64
}

// Registry is one subsystem scope's metric set — instantiated per
// board or per cluster, snapshot-able as one struct. Registration
// happens at build time; the hot path only touches the counts the
// mirrors read.
type Registry struct {
	Name     string
	counters []namedCounter
	gauges   []namedGauge
	sorted   bool // the row lists are in name order; a registration clears it
}

// NewRegistry returns an empty registry labelled name.
func NewRegistry(name string) *Registry { return &Registry{Name: name} }

// CounterFunc registers a mirror of a counter owned by another
// subsystem; fn is read only at snapshot time.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.counters, r.sorted = append(r.counters, namedCounter{name: name, fn: fn}), false
}

// GaugeFunc registers a point-in-time gauge read at snapshot time.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.gauges, r.sorted = append(r.gauges, namedGauge{name: name, fn: fn}), false
}

// CounterSnap is one counter row of a Snapshot.
type CounterSnap struct {
	Name  string
	Value uint64
}

// GaugeSnap is one gauge row of a Snapshot.
type GaugeSnap struct {
	Name  string
	Value int64
}

// Snapshot is a registry frozen as one plain struct: rows name-sorted
// so two snapshots of identical state are identical values.
type Snapshot struct {
	Name     string
	Counters []CounterSnap
	Gauges   []GaugeSnap
}

// Snapshot freezes the registry alone, into arrays of its own.
func (r *Registry) Snapshot() Snapshot {
	var s [1]Snapshot
	return new(Rows).Freeze(s[:0], r)[0]
}

// Rows is the arrays a set of snapshots cuts its rows from, one per row
// kind. A Rows kept from fill to fill is refilled in place: once it has
// held the largest fill, a fill allocates nothing — and overwrites the
// rows of the last.
type Rows struct {
	Counters Pool[CounterSnap]
	Gauges   Pool[GaugeSnap]
}

// Freeze snapshots regs, in order, into dst[:0] and returns it. Mirrors
// (CounterFunc/GaugeFunc) are read here, never on their owners' hot
// paths. Rows come out in name order because the row lists are kept in
// it: a registration marks them unsorted, the next snapshot sorts them
// once (stably). However many registries there are, their rows of one
// kind are cut from one array of r, each cut capped at its length so an
// append to one registry's rows cannot spill into the next's. dst's and
// r's arrays are reused when they have room, overwriting what a Freeze
// returned before.
func (r *Rows) Freeze(dst []Snapshot, regs ...*Registry) []Snapshot {
	var nc, ng int
	for _, reg := range regs {
		if !reg.sorted {
			slices.SortStableFunc(reg.counters, func(a, b namedCounter) int { return strings.Compare(a.name, b.name) })
			slices.SortStableFunc(reg.gauges, func(a, b namedGauge) int { return strings.Compare(a.name, b.name) })
			reg.sorted = true
		}
		nc, ng = nc+len(reg.counters), ng+len(reg.gauges)
	}
	r.Counters.reset(true, nc)
	r.Gauges.reset(true, ng)
	dst = slices.Grow(dst[:0], len(regs))
	for _, reg := range regs {
		s := Snapshot{Name: reg.Name, Counters: r.Counters.Cut(len(reg.counters), nc),
			Gauges: r.Gauges.Cut(len(reg.gauges), ng)}
		for _, nc := range reg.counters {
			s.Counters = append(s.Counters, CounterSnap{Name: nc.name, Value: nc.fn()})
		}
		for _, ng := range reg.gauges {
			s.Gauges = append(s.Gauges, GaugeSnap{Name: ng.name, Value: ng.fn()})
		}
		dst = append(dst, s)
	}
	return dst
}

// Pool is the array a fill cuts one kind of row from, for every
// registry. want is how many rows the last fill had, or this one's when
// the filler knows it; n counts this fill's.
type Pool[T any] struct {
	a       []T
	want, n int
}

// Next readies p for another fill, sized from the last. With keep it
// refills p's array if that held the last fill whole, overwriting its
// rows; without, the next cut starts a new array and they stay as they are.
func (p *Pool[T]) Next(keep bool) { p.reset(keep, p.n) }

// reset readies p for a fill of about want rows.
func (p *Pool[T]) reset(keep bool, want int) {
	if !keep || cap(p.a) < want {
		p.a = nil
	}
	p.a, p.want, p.n = p.a[:0], want, 0
}

// Cut gives n rows room in the fill's array: empty, of capacity n so an
// append cannot spill into the next cut, nil when n is 0. A short array
// is replaced by one for n, or the rest of want if more, but not past limit.
func (p *Pool[T]) Cut(n, limit int) []T {
	if n == 0 {
		return nil
	}
	if cap(p.a)-len(p.a) < n {
		p.a = make([]T, 0, min(max(n, p.want-p.n), limit))
	}
	p.n += n
	i := len(p.a)
	p.a = p.a[:i+n]
	return p.a[i : i : i+n]
}
