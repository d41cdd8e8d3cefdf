package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// refSnapshot is Snapshot as it was before the registry kept its rows
// sorted: append every row in registration order, sort.Slice each kind,
// trim every histogram by scanning for its last occupied bucket.
func refSnapshot(r *Registry) Snapshot {
	s := Snapshot{Name: r.Name}
	for _, nc := range r.counters {
		v := uint64(0)
		if nc.c != nil {
			v = nc.c.Value()
		} else if nc.fn != nil {
			v = nc.fn()
		}
		s.Counters = append(s.Counters, CounterSnap{Name: nc.name, Value: v})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	for _, ng := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: ng.name, Value: ng.fn()})
	}
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	for _, nh := range r.hists {
		hs := HistSnap{Name: nh.name, Count: nh.h.n, Sum: nh.h.sum, Max: nh.h.max}
		last := -1
		for i, c := range nh.h.counts {
			if c != 0 {
				last = i
			}
		}
		if last >= 0 {
			hs.Buckets = append([]uint64(nil), nh.h.counts[:last+1]...)
		}
		s.Hists = append(s.Hists, hs)
	}
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	return s
}

// TestSnapshotMatchesReference grows seeded registries row by row —
// names drawn in no order, owned counters bumped and histograms fed
// between registrations — and holds every Snapshot to the reference,
// taken first so it sees the rows as the last Snapshot left them. A
// registration between two snapshots must re-sort.
func TestSnapshotMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegistry(fmt.Sprintf("reg%d", seed))
		var counters []*Counter
		var hists []*Histogram
		// No name twice, as in every registry the system builds: the
		// reference's sort.Slice promises no order between equal names.
		names := rng.Perm(1000)
		for step := 0; step < 60; step++ {
			name := fmt.Sprintf("m%03d.x", names[step])
			switch rng.Intn(6) {
			case 0:
				counters = append(counters, r.Counter(name))
			case 1:
				v := rng.Uint64()
				r.CounterFunc(name, func() uint64 { return v })
			case 2:
				v := rng.Int63()
				r.GaugeFunc(name, func() int64 { return v })
			case 3:
				hists = append(hists, r.Histogram(name))
			case 4:
				if len(counters) > 0 {
					counters[rng.Intn(len(counters))].Add(uint64(rng.Intn(9)))
				}
			case 5:
				if len(hists) > 0 {
					// From sub-microsecond to past the last bucket, and negative.
					d := time.Duration(rng.Int63n(int64(time.Hour)<<uint(rng.Intn(12)))) - time.Second
					hists[rng.Intn(len(hists))].Observe(d >> uint(rng.Intn(40)))
				}
			}
			if rng.Intn(3) == 0 {
				want := refSnapshot(r)
				if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d:\n got  %+v\n want %+v", seed, step, got, want)
				}
			}
		}
		want := refSnapshot(r)
		if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, final:\n got  %+v\n want %+v", seed, got, want)
		}
	}
}

// TestSnapshotAllocations: a snapshot of an unchanged registry costs one
// slice per kind of row it has, plus one array for all the buckets.
func TestSnapshotAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the race build's")
	}
	r := NewRegistry("board0")
	for i := 0; i < 12; i++ {
		r.Counter(fmt.Sprintf("c%02d", 11-i)).Add(uint64(i))
	}
	if got := testing.AllocsPerRun(100, func() { r.Snapshot() }); got != 1 {
		t.Fatalf("counters only: %.0f allocations per snapshot, want 1", got)
	}
	for i := 0; i < 8; i++ {
		r.GaugeFunc(fmt.Sprintf("g%02d", 7-i), func() int64 { return 1 })
		r.Histogram(fmt.Sprintf("h%02d", 7-i))
	}
	if got := testing.AllocsPerRun(100, func() { r.Snapshot() }); got != 3 {
		t.Fatalf("three kinds, empty histograms: %.0f allocations per snapshot, want 3", got)
	}
	r.Histogram("h03").Observe(3 * time.Millisecond)
	r.Histogram("h05").Observe(300 * time.Millisecond)
	if got := testing.AllocsPerRun(100, func() { r.Snapshot() }); got != 4 {
		t.Fatalf("three kinds and buckets: %.0f allocations per snapshot, want 4", got)
	}
	// The shared array must not let one row's buckets grow into the next.
	s := r.Snapshot()
	for _, h := range s.Hists {
		if cap(h.Buckets) != len(h.Buckets) {
			t.Fatalf("%s: buckets have room to append into a neighbour (len %d cap %d)", h.Name, len(h.Buckets), cap(h.Buckets))
		}
	}
}
