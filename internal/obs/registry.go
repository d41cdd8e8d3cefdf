// Package obs is the deterministic observability plane: a fixed-slot
// counter/gauge/histogram registry and a virtual-time span tracer whose
// ring buffer records structured events stamped exclusively from sim
// virtual time, so traces are bit-identical across seeded runs.
//
// The package is simulation-native: nothing here reads wall clocks,
// iterates maps during export, or allocates on the hot path. Counters
// are mirrors of counts their subsystems own, read only at snapshot
// time; histograms bucket by power-of-two microseconds into a fixed
// array; the tracer overwrites its oldest events once full and
// accounts for every drop. Registries snapshot to one plain struct
// (name-sorted) that api.StatsResponse carries whole; the sort is paid
// when a row is registered — the first snapshot after it — never per
// snapshot, which allocates one array per row kind and one for the
// buckets, however many registries Rows.Freeze freezes at once, and
// nothing when it refills a Rows that held as many rows before.
//
// Naming convention: metric names are dot-paths,
// "<subsystem>.<thing>[_<unit>]" — e.g. "dns.cache_hits",
// "sim.pending", "activation.boot". Trace categories mirror the
// subsystem ("activation", "gossip", "migrate", "fed", "dns").
package obs

import (
	"math/bits"
	"slices"
	"strings"
	"time"
)

// histBuckets is the fixed slot count of a Histogram: bucket i counts
// observations whose microsecond value needs i bits, i.e. upper bound
// 2^i - 1 µs. 40 buckets reach past 12 days of latency — more virtual
// time than any experiment spans.
const histBuckets = 40

// Histogram is a fixed-slot latency histogram with power-of-two
// microsecond buckets. Observe is alloc-free: one bits.Len64 and three
// word updates.
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
	sum    time.Duration
	max    time.Duration
}

// bucketOf is the slot a (non-negative) sample lands in.
func bucketOf(d time.Duration) int { return min(bits.Len64(uint64(d/time.Microsecond)), histBuckets-1) }

// used is how many leading buckets a snapshot carries: up to the one
// holding the largest sample, none before the first.
func (h *Histogram) used() int {
	if h.n == 0 {
		return 0
	}
	return bucketOf(h.max) + 1
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)]++
	h.n++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

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

type namedHist struct {
	name string
	h    *Histogram
}

// Registry is one subsystem scope's metric set — instantiated per
// board or per cluster, snapshot-able as one struct. Registration
// happens at build time; the hot path only touches the returned
// Histogram pointers and the counts the mirrors read.
type Registry struct {
	Name     string
	counters []namedCounter
	gauges   []namedGauge
	hists    []namedHist
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

// Histogram registers (or returns the existing) histogram under name.
func (r *Registry) Histogram(name string) *Histogram {
	for _, nh := range r.hists {
		if nh.name == name {
			return nh.h
		}
	}
	h := &Histogram{}
	r.hists, r.sorted = append(r.hists, namedHist{name: name, h: h}), false
	return h
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

// HistSnap is one histogram row of a Snapshot. Buckets[i] counts
// samples whose microsecond value fits in i bits (upper bound 2^i-1µs);
// trailing empty buckets are trimmed.
type HistSnap struct {
	Name    string
	Count   uint64
	Sum     time.Duration
	Max     time.Duration
	Buckets []uint64
}

// Snapshot is a registry frozen as one plain struct: rows name-sorted
// so two snapshots of identical state are identical values.
type Snapshot struct {
	Name     string
	Counters []CounterSnap
	Gauges   []GaugeSnap
	Hists    []HistSnap
}

// Snapshot freezes the registry alone, into arrays of its own.
func (r *Registry) Snapshot() Snapshot {
	var s [1]Snapshot
	return new(Rows).Freeze(s[:0], r)[0]
}

// Rows is the arrays a set of snapshots cuts its rows from, one per row
// kind and one for every histogram's buckets. A Rows kept from fill to
// fill is refilled in place: once it has held the largest fill, a fill
// allocates nothing — and overwrites the rows of the last.
type Rows struct {
	Counters Pool[CounterSnap]
	Gauges   Pool[GaugeSnap]
	Hists    Pool[HistSnap]
	Buckets  Pool[uint64]
}

// Freeze snapshots regs, in order, into dst[:0] and returns it. Mirrors
// (CounterFunc/GaugeFunc) are read here, never on their owners' hot
// paths. Rows come out in name order because the row lists are kept in
// it: a registration marks them unsorted, the next snapshot sorts them
// once (stably). However many registries there are, their rows of one
// kind are cut from one array of r and all their histograms' buckets
// from one more, each cut capped at its length so an append to one
// registry's rows cannot spill into the next's. dst's and r's arrays are
// reused when they have room, overwriting what a Freeze returned before.
func (r *Rows) Freeze(dst []Snapshot, regs ...*Registry) []Snapshot {
	var nc, ng, nh, nb int
	for _, reg := range regs {
		if !reg.sorted {
			slices.SortStableFunc(reg.counters, func(a, b namedCounter) int { return strings.Compare(a.name, b.name) })
			slices.SortStableFunc(reg.gauges, func(a, b namedGauge) int { return strings.Compare(a.name, b.name) })
			slices.SortStableFunc(reg.hists, func(a, b namedHist) int { return strings.Compare(a.name, b.name) })
			reg.sorted = true
		}
		nc, ng, nh = nc+len(reg.counters), ng+len(reg.gauges), nh+len(reg.hists)
		for _, h := range reg.hists {
			nb += h.h.used()
		}
	}
	r.Counters.reset(true, nc)
	r.Gauges.reset(true, ng)
	r.Hists.reset(true, nh)
	r.Buckets.reset(true, nb)
	dst = slices.Grow(dst[:0], len(regs))
	for _, reg := range regs {
		s := Snapshot{Name: reg.Name, Counters: r.Counters.Cut(len(reg.counters), nc),
			Gauges: r.Gauges.Cut(len(reg.gauges), ng), Hists: r.Hists.Cut(len(reg.hists), nh)}
		for _, nc := range reg.counters {
			s.Counters = append(s.Counters, CounterSnap{Name: nc.name, Value: nc.fn()})
		}
		for _, ng := range reg.gauges {
			s.Gauges = append(s.Gauges, GaugeSnap{Name: ng.name, Value: ng.fn()})
		}
		for _, nh := range reg.hists {
			used := nh.h.used()
			s.Hists = append(s.Hists, HistSnap{Name: nh.name, Count: nh.h.n, Sum: nh.h.sum, Max: nh.h.max,
				Buckets: append(r.Buckets.Cut(used, nb), nh.h.counts[:used]...)})
		}
		dst = append(dst, s)
	}
	return dst
}

// Pool is the array a fill cuts one kind of row from, for every registry
// (every histogram, for buckets). want is how many rows the last fill
// had, or this one's when the filler knows it; n counts this fill's.
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
