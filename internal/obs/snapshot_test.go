package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// refSortingSnapshot is Snapshot as it was before the registry kept its
// rows sorted: append every row in registration order, sort.Slice each
// kind.
func refSortingSnapshot(r *Registry) Snapshot {
	s := Snapshot{Name: r.Name}
	for _, nc := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: nc.name, Value: nc.fn()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	for _, ng := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: ng.name, Value: ng.fn()})
	}
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	return s
}

// TestSnapshotMatchesReference grows seeded registries row by row —
// names drawn in no order, mirrored counts bumped between
// registrations — and holds every Snapshot to the reference,
// taken first so it sees the rows as the last Snapshot left them. A
// registration between two snapshots must re-sort.
func TestSnapshotMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegistry(fmt.Sprintf("reg%d", seed))
		var counters []*uint64
		// No name twice, as in every registry the system builds: the
		// reference's sort.Slice promises no order between equal names.
		names := rng.Perm(1000)
		for step := 0; step < 60; step++ {
			name := fmt.Sprintf("m%03d.x", names[step])
			switch rng.Intn(4) {
			case 0:
				counters = append(counters, mirror(r, name))
			case 1:
				v := rng.Uint64()
				r.CounterFunc(name, func() uint64 { return v })
			case 2:
				v := rng.Int63()
				r.GaugeFunc(name, func() int64 { return v })
			case 3:
				if len(counters) > 0 {
					*counters[rng.Intn(len(counters))] += uint64(rng.Intn(9))
				}
			}
			if rng.Intn(3) == 0 {
				want := refSortingSnapshot(r)
				if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d:\n got  %+v\n want %+v", seed, step, got, want)
				}
			}
		}
		want := refSortingSnapshot(r)
		if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, final:\n got  %+v\n want %+v", seed, got, want)
		}
	}
}

// TestSnapshotAllocations: a snapshot of an unchanged registry costs one
// slice per kind of row it has.
func TestSnapshotAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the race build's")
	}
	r := NewRegistry("board0")
	for i := 0; i < 12; i++ {
		*mirror(r, fmt.Sprintf("c%02d", 11-i)) = uint64(i)
	}
	if got := testing.AllocsPerRun(100, func() { r.Snapshot() }); got != 1 {
		t.Fatalf("counters only: %.0f allocations per snapshot, want 1", got)
	}
	for i := 0; i < 8; i++ {
		r.GaugeFunc(fmt.Sprintf("g%02d", 7-i), func() int64 { return 1 })
	}
	if got := testing.AllocsPerRun(100, func() { r.Snapshot() }); got != 2 {
		t.Fatalf("counters and gauges: %.0f allocations per snapshot, want 2", got)
	}
	// Each kind's rows are capped at their length, as a cut from an
	// array that registries share must be.
	s := r.Snapshot()
	if cap(s.Counters) != len(s.Counters) || cap(s.Gauges) != len(s.Gauges) {
		t.Fatalf("rows have room to append into a neighbour: counters len %d cap %d, gauges len %d cap %d",
			len(s.Counters), cap(s.Counters), len(s.Gauges), cap(s.Gauges))
	}
}

// refSnapshot is one registry's Snapshot as it was before Snapshots
// shared its arrays across registries: sort once, then a row slice per
// kind grown to size, per registry.
func refSnapshot(r *Registry) Snapshot {
	if !r.sorted {
		slices.SortStableFunc(r.counters, func(a, b namedCounter) int { return strings.Compare(a.name, b.name) })
		slices.SortStableFunc(r.gauges, func(a, b namedGauge) int { return strings.Compare(a.name, b.name) })
		r.sorted = true
	}
	s := Snapshot{Name: r.Name,
		Counters: slices.Grow([]CounterSnap(nil), len(r.counters)),
		Gauges:   slices.Grow([]GaugeSnap(nil), len(r.gauges))}
	for _, nc := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: nc.name, Value: nc.fn()})
	}
	for _, ng := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: ng.name, Value: ng.fn()})
	}
	return s
}

// Snapshots freezes regs into arrays of their own — a fresh Rows — as
// every Stats did before fills reused their buffers.
func Snapshots(regs ...*Registry) []Snapshot {
	var rows Rows
	return rows.Freeze(nil, regs...)
}

// mirror registers a counter under name that reads the word it returns,
// the way a subsystem mirrors a count it owns.
func mirror(r *Registry, name string) *uint64 {
	v := new(uint64)
	r.CounterFunc(name, func() uint64 { return *v })
	return v
}

// randomRegistry registers up to rows rows in no name order, each of a
// kind drawn from those kinds allows (bit 0 counters, 1 gauges),
// bumping mirrored counts as it goes.
func randomRegistry(rng *rand.Rand, name string, rows int, kinds int) *Registry {
	r := NewRegistry(name)
	var counters []*uint64
	for _, i := range rng.Perm(rows) {
		row := fmt.Sprintf("m%03d.x", i)
		switch k := rng.Intn(2); {
		case kinds&(1<<k) == 0:
		case k == 0 && rng.Intn(2) == 0:
			counters = append(counters, mirror(r, row))
		case k == 0:
			v := rng.Uint64()
			r.CounterFunc(row, func() uint64 { return v })
		default:
			v := rng.Int63()
			r.GaugeFunc(row, func() int64 { return v })
		}
		if len(counters) > 0 {
			*counters[rng.Intn(len(counters))] += uint64(rng.Intn(9))
		}
	}
	return r
}

// TestSnapshotsShareArrays holds Snapshots over seeded sets of
// registries — some empty, some missing a kind, sometimes a kind none has
// — to refSnapshot of each registry alone, and checks what sharing the
// arrays must not cost: one array per kind present, rows with no room to append into, nil for a kind a registry lacks, and
// an append to one registry's rows leaving every other's alone.
func TestSnapshotsShareArrays(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		kinds := 1 + rng.Intn(3)
		regs := make([]*Registry, 1+rng.Intn(6))
		for i := range regs {
			regs[i] = randomRegistry(rng, fmt.Sprintf("reg%d", i), rng.Intn(30), kinds&(1+rng.Intn(3)))
		}
		got := Snapshots(regs...)
		want := make([]Snapshot, len(regs))
		for i, r := range regs {
			want[i] = refSnapshot(r)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d:\n got  %+v\n want %+v", seed, got, want)
		}

		var rows [2]int // counters, gauges: all registries'
		for i, s := range got {
			rows[0], rows[1] = rows[0]+len(s.Counters), rows[1]+len(s.Gauges)
			if (len(s.Counters) == 0 && s.Counters != nil) || (len(s.Gauges) == 0 && s.Gauges != nil) {
				t.Fatalf("seed %d: registry %d has an empty kind that is not nil: %+v", seed, i, s)
			}
			if cap(s.Counters) != len(s.Counters) || cap(s.Gauges) != len(s.Gauges) {
				t.Fatalf("seed %d: registry %d's rows have room to append into a neighbour", seed, i)
			}
		}
		arrays := 1 // the []Snapshot, then one array per kind any registry has
		for _, n := range rows {
			if n > 0 {
				arrays++
			}
		}
		if !raceEnabled {
			if allocs := testing.AllocsPerRun(20, func() { Snapshots(regs...) }); allocs != float64(arrays) {
				t.Fatalf("seed %d: %d registries cost %.0f allocations, want %d", seed, len(regs), allocs, arrays)
			}
		}

		grown := 0
		for _, s := range got {
			grown += len(append(s.Counters, CounterSnap{Name: "spill"})) +
				len(append(s.Gauges, GaugeSnap{Name: "spill"}))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: appending %d rows changed a neighbour's:\n got  %+v\n want %+v", seed, grown, got, want)
		}
	}
}

// TestFreezeRefillsInPlace: a Rows and a []Snapshot kept from one Freeze
// to the next are refilled in place — equal to a fresh Snapshots, at zero
// allocations, on the same arrays — and a registration that grows a kind
// past its array costs one new array for that kind alone, after which
// the refill is free again.
func TestFreezeRefillsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	regs := []*Registry{randomRegistry(rng, "cluster", 20, 3), randomRegistry(rng, "board0", 30, 3), randomRegistry(rng, "board1", 0, 3)}
	var rows Rows
	var dst []Snapshot
	freeze := func() { dst = rows.Freeze(dst, regs...) }
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	check := func(when string) {
		t.Helper()
		counters := &dst[0].Counters[0]
		if !raceEnabled {
			if got := testing.AllocsPerRun(20, freeze); got != 0 {
				t.Fatalf("%s: a refill allocates %.0f, want 0", when, got)
			}
		}
		if !reflect.DeepEqual(dst, Snapshots(regs...)) {
			t.Fatalf("%s: refilled\n %+v\nfresh\n %+v", when, dst, Snapshots(regs...))
		}
		if &dst[0].Counters[0] != counters {
			t.Fatalf("%s: a refill moved the counters to a new array", when)
		}
	}
	freeze()
	check("first fill")
	regs[2].CounterFunc("c.new", func() uint64 { return 1 })
	if got := mallocs(freeze); !raceEnabled && got != 1 {
		t.Fatalf("a new counter: the refill allocated %d, want one array for the counters", got)
	}
	check("a counter more")
	// A gauge dropped, one added: the kind is as long as before.
	regs[1].gauges = regs[1].gauges[1:]
	regs[1].GaugeFunc("g.new", func() int64 { return -1 })
	if got := mallocs(freeze); got != 0 {
		t.Fatalf("a gauge swapped for another: the refill allocated %d, want 0", got)
	}
	check("a gauge swapped")
}
