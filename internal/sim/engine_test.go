package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.At(30*time.Millisecond, func() { order = append(order, 3) })
	e.At(10*time.Millisecond, func() { order = append(order, 1) })
	e.At(20*time.Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*time.Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestEngineAfterFromWithinEvent(t *testing.T) {
	e := New(1)
	var secondAt Duration
	e.At(10*time.Millisecond, func() {
		e.After(5*time.Millisecond, func() { secondAt = e.Now() })
	})
	e.Run()
	if secondAt != 15*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 15ms", secondAt)
	}
}

func TestEngineCancel(t *testing.T) {
	e := New(1)
	fired := false
	ev := e.At(10*time.Millisecond, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("event should report cancelled")
	}
	// Double cancel and zero-handle cancel must be no-ops.
	e.Cancel(ev)
	e.Cancel(Event{})
}

func TestEngineCancelAfterFire(t *testing.T) {
	e := New(1)
	ev := e.At(time.Millisecond, func() {})
	e.Run()
	e.Cancel(ev) // must not panic or corrupt the heap
	if !ev.Cancelled() {
		t.Fatal("fired event should report cancelled/fired")
	}
}

func TestEngineStaleHandleAfterReuse(t *testing.T) {
	// After an event fires, its pooled node may be recycled for a new
	// scheduling. Cancelling through the stale handle must not touch
	// the new event.
	e := New(1)
	first := e.At(time.Millisecond, func() {})
	e.Run()
	fired := false
	e.At(2*time.Millisecond, func() { fired = true })
	e.Cancel(first) // stale: generation mismatch
	e.Run()
	if !fired {
		t.Fatal("stale cancel killed an unrelated event")
	}
}

func TestEnginePendingWithLazyCancel(t *testing.T) {
	e := New(1)
	var evs []Event
	for i := 1; i <= 10; i++ {
		evs = append(evs, e.At(Duration(i)*time.Millisecond, func() {}))
	}
	for _, ev := range evs[:4] {
		e.Cancel(ev)
	}
	if got := e.Pending(); got != 6 {
		t.Fatalf("Pending = %d, want 6", got)
	}
	e.Run()
	if got := e.Fired(); got != 6 {
		t.Fatalf("Fired = %d, want 6", got)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d", got)
	}
}

func TestEngineCancelCompactsHeap(t *testing.T) {
	// Same-tick cancels are the ones that stay in the heap: lazy
	// collection alone would carry every dead node until it reaches the
	// root; compaction must reclaim them as soon as they dominate.
	e := New(1)
	var timers []Event
	for i := 0; i < 1000; i++ {
		timers = append(timers, e.At(Duration(i+1)*time.Nanosecond, func() {}))
	}
	fired := 0
	e.At(500*time.Microsecond, func() { fired++ })
	if len(e.heap) != 1001 {
		t.Fatalf("heap holds %d of 1001 same-tick events", len(e.heap))
	}
	for _, ev := range timers {
		e.Cancel(ev)
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
	// White-box: after compaction the dead nodes must be gone from the
	// heap itself, not just uncounted.
	if len(e.heap) > compactThreshold+1 {
		t.Fatalf("heap still holds %d nodes after cancelling 1000", len(e.heap))
	}
	for _, ev := range timers {
		if !ev.Cancelled() {
			t.Fatal("handle to compacted node not reported cancelled")
		}
		e.Cancel(ev) // must be a no-op on recycled nodes
	}
	e.Run()
	if fired != 1 || e.Fired() != 1 {
		t.Fatalf("fired=%d engine.Fired=%d, want 1/1", fired, e.Fired())
	}
}

func TestEngineCancelledTimersLeaveNothingBehind(t *testing.T) {
	// The retry-timer pattern: many far-future timeouts scheduled and
	// then cancelled as their exchanges complete. They wait in the
	// wheel, and each Cancel returns its node to the free list at once:
	// nothing dead is ever resident, in either tier.
	e := New(1)
	var timers []Event
	for i := 0; i < 1000; i++ {
		timers = append(timers, e.At(Duration(i+1)*time.Second, func() {}))
	}
	fired := 0
	e.At(500*time.Millisecond, func() { fired++ })
	for _, ev := range timers {
		e.Cancel(ev)
	}
	if free := len(freeList(e)); e.Pending() != 1 || e.nwheel != 1 || len(e.heap) != 0 || free != len(e.nodes)-2 {
		t.Fatalf("Pending=%d nwheel=%d heap=%d free=%d of %d nodes, want 1/1/0/all but one",
			e.Pending(), e.nwheel, len(e.heap), free, len(e.nodes)-1)
	}
	for _, ev := range timers {
		if !ev.Cancelled() {
			t.Fatal("handle to recycled node not reported cancelled")
		}
		e.Cancel(ev)
	}
	e.Run()
	if fired != 1 || e.Fired() != 1 {
		t.Fatalf("fired=%d engine.Fired=%d, want 1/1", fired, e.Fired())
	}
}

func TestEngineCompactionPreservesOrder(t *testing.T) {
	// Cross the compaction threshold mid-stream (every event inside one
	// tick, so all of them are heap nodes) and check the survivors still
	// drain in exact (at, seq) order.
	e := New(7)
	var got []int
	var evs []Event
	const n = 600
	for i := 0; i < n; i++ {
		i := i
		at := Duration((i*37)%n) * time.Microsecond
		evs = append(evs, e.At(at, func() { got = append(got, i) }))
	}
	var want []int
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			e.Cancel(evs[i])
			continue
		}
		want = append(want, i)
	}
	sort.Slice(want, func(a, b int) bool {
		wa, wb := want[a], want[b]
		aa, ab := Duration((wa*37)%n), Duration((wb*37)%n)
		if aa != ab {
			return aa < ab
		}
		return wa < wb
	})
	e.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order diverged at %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestEngineRunUntilSkipsCancelledHead(t *testing.T) {
	// A cancelled event at the head of the queue must not let RunUntil
	// fire a later event beyond its horizon.
	e := New(1)
	ev := e.At(5*time.Millisecond, func() {})
	fired := false
	e.At(20*time.Millisecond, func() { fired = true })
	e.Cancel(ev)
	e.RunUntil(10 * time.Millisecond)
	if fired {
		t.Fatal("RunUntil fired an event past its horizon")
	}
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("clock = %v", e.Now())
	}
	e.Run()
	if !fired {
		t.Fatal("event lost")
	}
}

// Property: an interleaving of schedules and cancels fires exactly the
// uncancelled events, in (at, seq) order.
func TestEngineCancelInterleavingProperty(t *testing.T) {
	f := func(delays []uint16, cancelMask uint64) bool {
		if len(delays) > 64 {
			delays = delays[:64]
		}
		e := New(3)
		var want []int
		var got []int
		var evs []Event
		for i, d := range delays {
			i := i
			evs = append(evs, e.At(Duration(d)*time.Microsecond, func() { got = append(got, i) }))
		}
		for i := range evs {
			if cancelMask&(1<<uint(i)) != 0 {
				e.Cancel(evs[i])
			}
		}
		type key struct {
			at  Duration
			seq int
		}
		var keys []key
		for i, d := range delays {
			if cancelMask&(1<<uint(i)) == 0 {
				keys = append(keys, key{Duration(d) * time.Microsecond, i})
			}
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].at != keys[b].at {
				return keys[a].at < keys[b].at
			}
			return keys[a].seq < keys[b].seq
		})
		for _, k := range keys {
			want = append(want, k.seq)
		}
		e.Run()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New(1)
	var fired []Duration
	for _, d := range []Duration{10, 20, 30, 40} {
		d := d * Duration(time.Millisecond)
		e.At(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(25 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25ms) fired %d events, want 2", len(fired))
	}
	if e.Now() != 25*time.Millisecond {
		t.Fatalf("clock after RunUntil = %v, want 25ms", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("Run after RunUntil fired %d total, want 4", len(fired))
	}
}

func TestEngineRunFor(t *testing.T) {
	e := New(1)
	n := 0
	e.At(10*time.Millisecond, func() { n++ })
	e.At(30*time.Millisecond, func() { n++ })
	e.RunFor(20 * time.Millisecond)
	if n != 1 {
		t.Fatalf("RunFor(20ms) fired %d, want 1", n)
	}
	e.RunFor(20 * time.Millisecond)
	if n != 2 {
		t.Fatalf("second RunFor fired %d total, want 2", n)
	}
}

func TestEngineStop(t *testing.T) {
	e := New(1)
	n := 0
	e.At(1*time.Millisecond, func() { n++; e.stopped = true })
	e.At(2*time.Millisecond, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("Stop did not halt Run: %d events fired", n)
	}
	e.Run() // resumes
	if n != 2 {
		t.Fatalf("Run did not resume after Stop: %d", n)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New(1)
	e.At(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5*time.Millisecond, func() {})
	})
	e.Run()
}

func TestEngineNegativeAfterClamps(t *testing.T) {
	e := New(1)
	fired := false
	e.After(-5*time.Millisecond, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("negative After should clamp to now and fire")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []Duration {
		e := New(seed)
		var out []Duration
		var rec func()
		n := 0
		rec = func() {
			out = append(out, e.Now())
			n++
			if n < 50 {
				e.After(Duration(e.Rand().Int63n(int64(time.Millisecond))), rec)
			}
		}
		e.After(0, rec)
		e.Run()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("determinism: different event counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("determinism: event %d at %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

func TestDistsNonNegativeAndDeterministic(t *testing.T) {
	dists := []Dist{
		Normal{Mean: time.Millisecond, Stddev: 5 * time.Millisecond},
		Exponential{Base: time.Microsecond, Mean: time.Millisecond},
		LogNormal{Median: time.Millisecond, Sigma: 0.5},
	}
	for i, d := range dists {
		a := New(7).Rand()
		b := New(7).Rand()
		for j := 0; j < 200; j++ {
			va, vb := d.Sample(a), d.Sample(b)
			if va != vb {
				t.Fatalf("dist %d not deterministic", i)
			}
			if va < 0 {
				t.Fatalf("dist %d produced negative sample %v", i, va)
			}
		}
	}
}

// Property: the engine clock never moves backwards across any sequence of
// scheduled events.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New(99)
		last := Duration(-1)
		ok := true
		for _, d := range delays {
			e.After(Duration(d)*time.Microsecond, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
