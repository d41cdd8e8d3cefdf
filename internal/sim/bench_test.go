package sim_test

import (
	"fmt"
	"testing"
	"time"

	"jitsu/internal/sim"
)

// BenchmarkEngineSchedule measures scheduling and draining 64 events —
// the substrate cost under every experiment and the cluster control
// plane.
func BenchmarkEngineSchedule(b *testing.B) {
	e := sim.New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			e.After(time.Duration(j)*time.Microsecond, fn)
		}
		for e.Step() {
		}
	}
}

// farTimers parks n timers an hour out, a nanosecond apart: the standing
// population (TIME_WAIT, idle reapers, pre-scheduled arrivals) beside
// which every near event is scheduled.
func farTimers(e *sim.Engine, n int) {
	for i := 0; i < n; i++ {
		e.At(e.Now()+time.Hour+sim.Duration(i), func() {})
	}
}

// BenchmarkSchedulePop schedules one near event and pops it beside N far
// timers: what a frame hop costs on a busy board. In garbage, the event
// allocates as a simulation's handlers do, beside 10 000 far timers, so
// the collector is marking through much of the loop and every pointer
// the scheduler writes meanwhile pays the write barrier.
func BenchmarkSchedulePop(b *testing.B) {
	schedulePop := func(b *testing.B, far int, fn func()) {
		e := sim.New(1)
		farTimers(e, far)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.After(time.Microsecond, fn)
			e.Step()
		}
	}
	for _, far := range []int{0, 1000, 10000} {
		b.Run(fmt.Sprintf("far=%d", far), func(b *testing.B) { schedulePop(b, far, func() {}) })
	}
	b.Run("garbage", func(b *testing.B) {
		var keep []byte
		schedulePop(b, 10000, func() { keep = make([]byte, 256) })
		_ = keep
	})
}

// BenchmarkArmCancel is the retransmit-timer pattern: arm a 200 ms
// timeout, cancel it when the exchange completes.
func BenchmarkArmCancel(b *testing.B) {
	for _, far := range []int{0, 10000} {
		b.Run(fmt.Sprintf("far=%d", far), func(b *testing.B) {
			e := sim.New(1)
			farTimers(e, far)
			fn := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Cancel(e.After(200*time.Millisecond, fn))
			}
		})
	}
}

// BenchmarkTimeWaitChurn is warm_fetch's shape: a steady 10 k timers of
// one constant delay expiring FIFO, each expiry re-arming itself and
// arming ten 200 ms timers that are cancelled at once.
func BenchmarkTimeWaitChurn(b *testing.B) {
	const population, timeWait = 10000, 2 * time.Second
	e := sim.New(1)
	fn := func() {}
	var expire func()
	expire = func() {
		e.After(timeWait, expire)
		for i := 0; i < 10; i++ {
			e.Cancel(e.After(200*time.Millisecond, fn))
		}
	}
	for i := 0; i < population; i++ {
		e.After(timeWait*sim.Duration(i)/population, expire)
	}
	e.RunFor(2 * timeWait) // every node pooled, the wheel turning
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// counter is an event object: its own Handler, as a connection is.
type counter struct{ n int }

func (c *counter) Fire() { c.n++ }

// TestScheduleAllocs holds a steady-state schedule to no allocation
// whichever way the event comes: a func (converted to a Handler inside
// After and At), a method value bound once beforehand, or an object
// that is its own Handler — scheduled and fired, or armed and cancelled.
func TestScheduleAllocs(t *testing.T) {
	e := sim.New(1)
	farTimers(e, 1000)
	var c counter
	fn := func() { c.n++ }
	bound := c.Fire
	for _, op := range []struct {
		name string
		fn   func()
	}{
		{"After(func)", func() { e.After(time.Microsecond, fn); e.Step() }},
		{"At(func)", func() { e.At(e.Now()+time.Microsecond, fn); e.Step() }},
		{"After(method value)", func() { e.After(time.Microsecond, bound); e.Step() }},
		{"AfterHandler", func() { e.AfterHandler(time.Microsecond, &c); e.Step() }},
		{"After+Cancel", func() { e.Cancel(e.After(200*time.Millisecond, fn)) }},
		{"AfterHandler+Cancel", func() { e.Cancel(e.AfterHandler(200*time.Millisecond, &c)) }},
	} {
		op.fn() // a node on the free list
		if n := testing.AllocsPerRun(1000, op.fn); n != 0 {
			t.Errorf("%s: %v allocs per schedule, want 0", op.name, n)
		}
	}
	if c.n == 0 {
		t.Fatal("no event fired")
	}
}
