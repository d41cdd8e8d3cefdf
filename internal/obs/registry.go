// Package obs is the deterministic observability plane: a fixed-slot
// counter/gauge/histogram registry and a virtual-time span tracer whose
// ring buffer records structured events stamped exclusively from sim
// virtual time, so traces are bit-identical across seeded runs.
//
// The package is simulation-native: nothing here reads wall clocks,
// iterates maps during export, or allocates on the hot path. Counters
// are plain incremented words; histograms bucket by power-of-two
// microseconds into a fixed array; the tracer overwrites its oldest
// events once full and accounts for every drop. Registries snapshot to
// one plain struct (name-sorted) that api.StatsResponse carries whole;
// the sort is paid when a row is registered — the first snapshot after
// it — never per snapshot, which allocates one array per row kind and
// one for the buckets, however many registries Snapshots freezes at once.
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

// Counter is a monotonically increasing count. The zero value is ready
// to use; Inc/Add are single-word updates with no allocation.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v }

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

// Count reports how many samples have been observed.
func (h *Histogram) Count() uint64 { return h.n }

// namedGauge is a read-at-snapshot mirror of state owned elsewhere
// (queue depths, epochs). The closure runs only when Snapshot does, so
// mirrored subsystems pay nothing on their hot paths.
type namedGauge struct {
	name string
	fn   func() int64
}

type namedCounter struct {
	name string
	c    *Counter
	fn   func() uint64 // mirror of an externally owned counter
}

type namedHist struct {
	name string
	h    *Histogram
}

// Registry is one subsystem scope's metric set — instantiated per
// board or per cluster, snapshot-able as one struct. Registration
// happens at build time; the hot path only touches the returned
// Counter/Histogram pointers.
type Registry struct {
	Name     string
	counters []namedCounter
	gauges   []namedGauge
	hists    []namedHist
	sorted   bool // the row lists are in name order; a registration clears it
}

// NewRegistry returns an empty registry labelled name.
func NewRegistry(name string) *Registry { return &Registry{Name: name} }

// Counter registers (or returns the existing) owned counter under name.
func (r *Registry) Counter(name string) *Counter {
	for _, nc := range r.counters {
		if nc.name == name && nc.c != nil {
			return nc.c
		}
	}
	c := &Counter{}
	r.counters, r.sorted = append(r.counters, namedCounter{name: name, c: c}), false
	return c
}

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

// Snapshot freezes the registry: Snapshots of it alone.
func (r *Registry) Snapshot() Snapshot {
	var s [1]Snapshot
	freeze(s[:], []*Registry{r})
	return s[0]
}

// Snapshots freezes regs, in order, one Snapshot each. Mirrors
// (CounterFunc/GaugeFunc) are read here, never on their owners' hot
// paths. Rows come out in name order because the row lists are kept in
// it: a registration marks them unsorted, the next snapshot sorts them
// once (stably). However many registries there are, their rows of one
// kind are cut from one array and all their histograms' buckets from
// one more, each cut capped at its length so an append to one
// registry's rows cannot spill into the next's.
func Snapshots(regs ...*Registry) []Snapshot {
	out := make([]Snapshot, len(regs))
	freeze(out, regs)
	return out
}

// freeze snapshots regs[i] into out[i]: one pass sorts and counts, the
// second fills the shared arrays.
func freeze(out []Snapshot, regs []*Registry) {
	var nc, ng, nh, nb int
	for _, r := range regs {
		if !r.sorted {
			slices.SortStableFunc(r.counters, func(a, b namedCounter) int { return strings.Compare(a.name, b.name) })
			slices.SortStableFunc(r.gauges, func(a, b namedGauge) int { return strings.Compare(a.name, b.name) })
			slices.SortStableFunc(r.hists, func(a, b namedHist) int { return strings.Compare(a.name, b.name) })
			r.sorted = true
		}
		nc, ng, nh = nc+len(r.counters), ng+len(r.gauges), nh+len(r.hists)
		for _, h := range r.hists {
			nb += h.h.used()
		}
	}
	// Grow, not make: a kind no registry has stays nil, as append left it.
	counters := slices.Grow([]CounterSnap(nil), nc)
	gauges := slices.Grow([]GaugeSnap(nil), ng)
	hists := slices.Grow([]HistSnap(nil), nh)
	buckets := make([]uint64, 0, nb)
	for i, r := range regs {
		c0, g0, h0 := len(counters), len(gauges), len(hists)
		for _, nc := range r.counters {
			v := uint64(0)
			if nc.c != nil {
				v = nc.c.Value()
			} else if nc.fn != nil {
				v = nc.fn()
			}
			counters = append(counters, CounterSnap{Name: nc.name, Value: v})
		}
		for _, ng := range r.gauges {
			gauges = append(gauges, GaugeSnap{Name: ng.name, Value: ng.fn()})
		}
		for _, nh := range r.hists {
			hs := HistSnap{Name: nh.name, Count: nh.h.n, Sum: nh.h.sum, Max: nh.h.max}
			b0 := len(buckets)
			buckets = append(buckets, nh.h.counts[:nh.h.used()]...)
			hs.Buckets = tail(buckets, b0)
			hists = append(hists, hs)
		}
		out[i] = Snapshot{Name: r.Name, Counters: tail(counters, c0), Gauges: tail(gauges, g0), Hists: tail(hists, h0)}
	}
}

// tail is a[from:] as one registry's (or histogram's) own rows: capped at
// its length, and nil when there are none.
func tail[T any](a []T, from int) []T {
	if from == len(a) {
		return nil
	}
	return a[from:len(a):len(a)]
}
