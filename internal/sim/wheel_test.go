package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"time"
)

// ---- the two-tier Engine against the one-heap refEngine ----

// scheduler is what the model drives on both engines; a handle is
// reduced to its two operations so one script serves both handle types.
type scheduler struct {
	now        func() Duration
	pending    func() int
	maxPending func() int
	fired      func() uint64
	at         func(Duration, func()) modelHandle
	after      func(Duration, func()) modelHandle
	handler    func(Duration, func()) modelHandle // a Handler that is not a func; the reference's After
	step       func() bool
	run        func()
	runUntil   func(Duration)
	runFor     func(Duration)
	stop       func()
}

type modelHandle struct {
	cancel    func()
	cancelled func() bool
}

func wheelScheduler(e *Engine) scheduler {
	return scheduler{
		now: e.Now, pending: e.Pending, maxPending: e.MaxPending, fired: e.Fired,
		at: func(t Duration, fn func()) modelHandle {
			ev := e.At(t, fn)
			return modelHandle{func() { e.Cancel(ev) }, ev.Cancelled}
		},
		after: func(d Duration, fn func()) modelHandle {
			ev := e.After(d, fn)
			return modelHandle{func() { e.Cancel(ev) }, ev.Cancelled}
		},
		handler: func(d Duration, fn func()) modelHandle {
			ev := e.AfterHandler(d, &modelHandler{fn})
			return modelHandle{func() { e.Cancel(ev) }, ev.Cancelled}
		},
		step: e.Step, run: e.Run, runUntil: e.RunUntil, runFor: e.RunFor, stop: func() { e.stopped = true },
	}
}

// modelHandler is an event object with a method, as a connection or a
// query is one.
type modelHandler struct{ fn func() }

func (h *modelHandler) Fire() { h.fn() }

func refScheduler(e *refEngine) scheduler {
	s := scheduler{
		now: e.Now, pending: e.Pending, maxPending: e.MaxPending, fired: e.Fired,
		at: func(t Duration, fn func()) modelHandle {
			ev := e.At(t, fn)
			return modelHandle{func() { e.Cancel(ev) }, ev.Cancelled}
		},
		after: func(d Duration, fn func()) modelHandle {
			ev := e.After(d, fn)
			return modelHandle{func() { e.Cancel(ev) }, ev.Cancelled}
		},
		step: e.Step, run: e.Run, runUntil: e.RunUntil, runFor: e.RunFor, stop: func() { e.stopped = true },
	}
	s.handler = s.after
	return s
}

// modelSide is one engine under the script, with what it has fired.
type modelSide struct {
	s       scheduler
	log     []int // ids in firing order
	handles []modelHandle
}

// modelDelay maps a script byte and the event's id to a delay from the
// classes the simulation uses: same instant, sub-tick jitter, the DNS
// retransmit, TIME_WAIT, the idle reaper, minutes, and one beyond the
// wheel's span. The far class is skipped once the clock is so far out
// that adding it again would overflow.
func modelDelay(code byte, id int, now Duration) Duration {
	jitter := Duration(id*7919%2000) * time.Microsecond
	switch code % 8 {
	case 0:
		return 0
	case 1:
		return jitter
	case 2:
		return 200*time.Millisecond + jitter
	case 3:
		return 2 * time.Second
	case 4:
		return 30*time.Second + jitter
	case 5:
		return Duration(1+id%7)*time.Minute + jitter
	case 6:
		if now < 1<<60 {
			return wheelSpan<<tickShift + jitter*1000
		}
		return time.Hour
	default:
		return Duration(id%70) * (1 << tickShift) // whole ticks: cascade boundaries
	}
}

// schedule adds event id = len(handles) on this side: at an instant, or
// after a delay as a func or as a Handler object, so one stream mixes
// both kinds of event with cancels of either. What a handler does is a
// function of its id alone, so both sides grow the same children as
// long as they fire in the same order.
func (m *modelSide) schedule(code byte) {
	id := len(m.handles)
	d := modelDelay(code, id, m.s.now())
	fn := func() {
		m.log = append(m.log, id)
		switch {
		case id%5 == 0:
			m.schedule(byte(id / 5))
		case id%7 == 0:
			m.handles[id*13%len(m.handles)].cancel()
		case id%53 == 0:
			m.s.stop()
		}
	}
	m.handles = append(m.handles, modelHandle{})
	switch {
	case code&8 != 0:
		m.handles[id] = m.s.at(m.s.now()+d, fn)
	case code&16 != 0:
		m.handles[id] = m.s.handler(d, fn)
	default:
		m.handles[id] = m.s.after(d, fn)
	}
}

// apply plays one scripted operation.
func (m *modelSide) apply(op, arg byte) {
	switch op % 16 {
	case 0, 1, 2, 3, 4, 5, 6:
		m.schedule(arg)
	case 7, 8, 9:
		if len(m.handles) > 0 { // live, fired, stale or already cancelled
			m.handles[int(arg)*7%len(m.handles)].cancel()
		}
	case 10, 11:
		for i := 0; i <= int(arg%8); i++ {
			m.s.step()
		}
	case 12:
		m.s.runUntil(m.s.now() + modelDelay(arg, int(arg), m.s.now()))
	case 13:
		m.s.runFor(modelDelay(arg, int(arg), m.s.now()))
	case 14:
		m.s.runFor(Duration(arg) * 100 * time.Microsecond)
	case 15:
		switch arg % 8 {
		case 0:
			m.s.run()
		case 1:
			// Enough same-tick cancels to make dead nodes dominate the
			// heap: the one case compaction is still there for.
			first := len(m.handles)
			for i := 0; i < 2*compactThreshold; i++ {
				m.schedule(0)
			}
			for _, h := range m.handles[first+compactThreshold/2:] {
				h.cancel()
			}
		case 2, 3:
			// A run of ties: events at one instant — now, or in a wheel
			// slot — as funcs, at an instant and as Handlers, so only
			// seq orders them, in the heap and through a flush.
			m.ties(arg)
		case 4, 5:
			// Cancels from the middle of one wheel slot's list, so
			// unlink meets a node with neighbours on both sides.
			first := len(m.handles)
			m.ties(arg)
			for i := first + 1; i < len(m.handles)-1; i += 2 {
				m.handles[i].cancel()
			}
		default:
			m.s.step()
		}
	}
}

// ties schedules 3 to 10 events at one instant, chosen by arg: the
// current one, or a later one whose tick every one of them shares.
func (m *modelSide) ties(arg byte) {
	at := m.s.now()
	if arg&16 != 0 {
		at += modelDelay(arg>>5, int(arg), at)
	}
	for i := 0; i < 3+int(arg>>2)%8; i++ {
		id := len(m.handles)
		fn := func() { m.log = append(m.log, id) }
		m.handles = append(m.handles, modelHandle{})
		if i%2 == 0 {
			m.handles[id] = m.s.at(at, fn)
		} else {
			m.handles[id] = m.s.handler(at-m.s.now(), fn)
		}
	}
}

// runModel plays ops (pairs of opcode, argument) on both engines and
// compares everything observable after every operation.
func runModel(t *testing.T, ops []byte) {
	eng := New(1)
	w := &modelSide{s: wheelScheduler(eng)}
	r := &modelSide{s: refScheduler(&refEngine{})}
	for i := 0; i+1 < len(ops); i += 2 {
		w.apply(ops[i], ops[i+1])
		r.apply(ops[i], ops[i+1])
		at := fmt.Sprintf("after op %d (%d,%d)", i/2, ops[i]%16, ops[i+1])
		if w.s.now() != r.s.now() || w.s.pending() != r.s.pending() ||
			w.s.maxPending() != r.s.maxPending() || w.s.fired() != r.s.fired() {
			t.Fatalf("%s: now %v/%v pending %d/%d maxPending %d/%d fired %d/%d (wheel/ref)", at,
				w.s.now(), r.s.now(), w.s.pending(), r.s.pending(),
				w.s.maxPending(), r.s.maxPending(), w.s.fired(), r.s.fired())
		}
		if len(w.log) != len(r.log) || len(w.handles) != len(r.handles) {
			t.Fatalf("%s: fired %d/%d scheduled %d/%d", at, len(w.log), len(r.log), len(w.handles), len(r.handles))
		}
		for k := range w.log {
			if w.log[k] != r.log[k] {
				t.Fatalf("%s: firing order diverges at %d: %d/%d", at, k, w.log[k], r.log[k])
			}
		}
		for k := range w.handles {
			if w.handles[k].cancelled() != r.handles[k].cancelled() {
				t.Fatalf("%s: handle %d Cancelled() %v/%v", at, k, w.handles[k].cancelled(), r.handles[k].cancelled())
			}
		}
		checkWheel(t, eng, at)
	}
}

// checkWheel holds the wheel to its invariants: every resident node is
// pending, linked both ways, beyond the cursor, and filed in the level
// and slot its tick names relative to the cursor; the bitmaps, the node
// count and the cached earliest start agree with the lists; the cursor
// never passes the clock; no free node keeps a back link or its
// callback. And the heap and the pool to theirs: every node sits at its
// own index; every heap entry carries its node's key, is ordered below
// its children and names a pending or cancelled node with no link; the
// cancelled ones are counted; and each node is in exactly one of the
// heap, the wheel and the free list.
func checkWheel(t *testing.T, e *Engine, at string) {
	t.Helper()
	for i, n := range e.nodes[1:] {
		if n.idx != uint32(i+1) {
			t.Fatalf("%s: node %d records index %d", at, i+1, n.idx)
		}
	}
	homes := make([]int, len(e.nodes))
	cancelled := 0
	for k, x := range e.heap {
		n := e.nodes[x.idx]
		if x.at != n.at || x.seq != n.seq || n.state == stateWheel || n.next != 0 || n.prev != 0 || k > 0 && x.less(e.heap[(k-1)>>2]) {
			t.Fatalf("%s: heap entry %d (%v, %d) for node %d (%v, %d, state %d) out of place",
				at, k, x.at, x.seq, x.idx, n.at, n.seq, n.state)
		}
		if n.state == stateCancelled {
			cancelled++
		}
		homes[x.idx]++
	}
	if cancelled != e.ncancel {
		t.Fatalf("%s: %d cancelled entries in the heap, ncancel %d", at, cancelled, e.ncancel)
	}
	for _, i := range freeList(e) {
		homes[i]++
	}
	if e.cursor > tickOf(e.now) {
		t.Fatalf("%s: cursor %d beyond the clock's tick %d", at, e.cursor, tickOf(e.now))
	}
	count, earliest := 0, uint64(0)
	for slot, head := range e.slots {
		level, s := uint(slot>>wheelBits), uint(slot&(wheelSlots-1))
		if occ := e.occ[level]&(1<<s) != 0; occ != (head != 0) {
			t.Fatalf("%s: slot %d/%d occupancy bit %v, list non-empty %v", at, level, s, occ, head != 0)
		}
		var prev uint32
		for i := head; i != 0; prev, i = i, e.nodes[i].next {
			n := e.nodes[i]
			tick := tickOf(n.at)
			diff := tick ^ e.cursor
			if n.state != stateWheel || n.prev != prev || int(n.slot) != slot || tick <= e.cursor ||
				uint(bits.Len64(diff)-1)/wheelBits != level || uint(tick>>(level*wheelBits))&(wheelSlots-1) != s {
				t.Fatalf("%s: node at tick %d misfiled in slot %d/%d (cursor %d, state %d, slot field %d)",
					at, tick, level, s, e.cursor, n.state, n.slot)
			}
			start := tick >> (level * wheelBits) << (level * wheelBits)
			if count == 0 || start < earliest {
				earliest = start
			}
			homes[i]++
			count++
		}
	}
	if count != e.nwheel {
		t.Fatalf("%s: nwheel %d, lists hold %d", at, e.nwheel, count)
	}
	for i, h := range homes[1:] {
		if h != 1 {
			t.Fatalf("%s: node %d is in %d of heap, wheel and free list", at, i+1, h)
		}
	}
	if count > 0 && e.nextStart > earliest {
		t.Fatalf("%s: nextStart %d is past the earliest slot start %d", at, e.nextStart, earliest)
	}
	for _, i := range freeList(e) {
		if n := e.nodes[i]; n.prev != 0 || n.h != nil {
			t.Fatalf("%s: recycled node keeps a link or its callback", at)
		}
	}
}

// freeList returns the free nodes' indices, head first; it stops at as
// many as there are nodes, so a cycle shows as a node with two homes.
func freeList(e *Engine) []uint32 {
	var free []uint32
	for i := e.free; i != 0 && len(free) < len(e.nodes); i = e.nodes[i].next {
		free = append(free, i)
	}
	return free
}

func TestWheelMatchesHeap(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		ops := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(ops)
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runModel(t, ops) })
	}
}

func FuzzEngineModel(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		ops := make([]byte, 200)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(runModel)
}

// ---- named edges ----

// levelOf reports which wheel level holds ev, or -1 for the heap.
func levelOf(ev Event) int {
	if ev.n.state != stateWheel {
		return -1
	}
	return int(ev.n.slot >> wheelBits)
}

func TestWheelCascadeBoundaries(t *testing.T) {
	// Ticks either side of the level-0/1 and level-1/2 boundaries, from
	// cursor 0, scheduled out of order with sub-tick offsets that run
	// against the scheduling order.
	e := New(1)
	ticks := []uint64{4097, 65, 4095, 63, 4096, 64}
	wantLevel := map[uint64]int{63: 0, 64: 1, 65: 1, 4095: 1, 4096: 2, 4097: 2}
	var got []Duration
	for i, tick := range ticks {
		at := Duration(tick<<tickShift) + Duration(len(ticks)-i)
		ev := e.At(at, func() { got = append(got, e.Now()) })
		if l := levelOf(ev); l != wantLevel[tick] {
			t.Fatalf("tick %d filed at level %d, want %d", tick, l, wantLevel[tick])
		}
	}
	if e.Pending() != len(ticks) || len(e.heap) != 0 {
		t.Fatalf("Pending = %d with %d in the heap, want %d and 0", e.Pending(), len(e.heap), len(ticks))
	}
	for e.Step() {
		checkWheel(t, e, "cascade")
	}
	if len(got) != len(ticks) {
		t.Fatalf("fired %d of %d", len(got), len(ticks))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("fired out of order: %v", got)
		}
	}
	if tickOf(got[0]) != 63 || tickOf(got[5]) != 4097 {
		t.Fatalf("fired at the wrong instants: %v", got)
	}
}

func TestRunUntilLeavesFarEventInWheel(t *testing.T) {
	// A bounded run must not drag the cursor (and the far event with it)
	// past its bound.
	e := New(1)
	far := false
	e.After(time.Hour, func() { far = true })
	e.Cancel(e.After(5*time.Millisecond, func() {})) // leaves nextStart behind, at its slot
	e.RunUntil(10 * time.Millisecond)
	if e.nwheel != 1 || len(e.heap) != 0 || e.cursor > tickOf(e.Now()) {
		t.Fatalf("after RunUntil: nwheel=%d heap=%d cursor=%d (clock tick %d)", e.nwheel, len(e.heap), e.cursor, tickOf(e.Now()))
	}
	// The run looked for the earliest slot and must remember where it
	// starts (an hour out is level 3), or every step looks again.
	if want := tickOf(time.Hour) >> 18 << 18; e.nextStart != want {
		t.Fatalf("nextStart = %d after a settle, want the far slot's start %d", e.nextStart, want)
	}
	near := false
	e.After(time.Microsecond, func() {
		near = true
		if far {
			t.Error("the far event fired before the near one")
		}
	})
	e.Step()
	if !near || far || e.Pending() != 1 {
		t.Fatalf("near=%v far=%v pending=%d after one step", near, far, e.Pending())
	}
	e.Run()
	if !far || e.Now() != time.Hour {
		t.Fatalf("far=%v at %v", far, e.Now())
	}
}

func TestCancelInWheelRecyclesAtOnce(t *testing.T) {
	e := New(1)
	e.After(time.Second, func() {})
	ev := e.After(2*time.Second, func() { t.Error("cancelled event fired") })
	if e.Pending() != 2 || e.nwheel != 2 {
		t.Fatalf("Pending=%d nwheel=%d, want 2/2", e.Pending(), e.nwheel)
	}
	e.Cancel(ev)
	if free := freeList(e); e.Pending() != 1 || e.nwheel != 1 || e.ncancel != 0 || len(free) != len(e.nodes)-2 || e.nodes[free[0]] != ev.n {
		t.Fatalf("after Cancel: Pending=%d nwheel=%d ncancel=%d free=%d of %d nodes, the cancelled one not first",
			e.Pending(), e.nwheel, e.ncancel, len(free), len(e.nodes)-1)
	}
	if !ev.Cancelled() {
		t.Fatal("handle not reported cancelled")
	}
	checkWheel(t, e, "after cancel")
	// The node is reused by the next scheduling; the stale handle must
	// not reach it.
	reused := false
	ev2 := e.After(3*time.Second, func() { reused = true })
	if ev2.n != ev.n {
		t.Fatal("recycled node was not reused")
	}
	e.Cancel(ev)
	if ev2.Cancelled() || e.Pending() != 2 {
		t.Fatalf("stale cancel reached the reused node: Pending=%d", e.Pending())
	}
	e.Run()
	if !reused {
		t.Fatal("reused node's event lost")
	}
}

func TestInsertWhileCursorLags(t *testing.T) {
	// After a long run of nothing the cursor is far behind the clock, so
	// short timers are filed together in one coarse slot; flushing it
	// must bring the cursor up to the earliest and sort the rest out.
	e := New(1)
	e.RunUntil(time.Hour)
	if e.cursor != 0 {
		t.Fatalf("cursor moved to %d with nothing scheduled", e.cursor)
	}
	var fired []Duration
	note := func() { fired = append(fired, e.Now()-time.Hour) }
	e.After(70*time.Millisecond, note)
	e.After(3*time.Millisecond, note)
	e.After(5*time.Second, note)
	e.After(3*time.Millisecond+1, note)
	checkWheel(t, e, "lagging inserts")
	e.Step()
	if e.cursor != tickOf(time.Hour+3*time.Millisecond) {
		t.Fatalf("cursor=%d after the first event, want its tick %d", e.cursor, tickOf(time.Hour+3*time.Millisecond))
	}
	checkWheel(t, e, "after the first flush")
	e.Run()
	want := []Duration{3 * time.Millisecond, 3*time.Millisecond + 1, 70 * time.Millisecond, 5 * time.Second}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired at %v after the hour, want %v", fired, want)
	}
}

func TestRunUntilAfterStopKeepsClock(t *testing.T) {
	// Stop inside RunUntil used to let the clock jump to the bound over
	// events still pending before it; the next Step then ran time
	// backwards.
	e := New(1)
	last := Duration(0)
	seen := func() {
		if e.Now() < last {
			t.Errorf("clock moved backwards: %v after %v", e.Now(), last)
		}
		last = e.Now()
	}
	e.At(time.Millisecond, func() { seen(); e.stopped = true })
	e.At(2*time.Millisecond, seen)
	e.RunUntil(5 * time.Millisecond)
	if e.Now() != time.Millisecond {
		t.Fatalf("Now = %v after Stop at 1ms, want 1ms", e.Now())
	}
	last = e.Now()
	e.Run()
	if e.Fired() != 2 || e.Now() != 2*time.Millisecond {
		t.Fatalf("fired %d, clock %v", e.Fired(), e.Now())
	}
	e.RunUntil(5 * time.Millisecond) // and an unstopped run still lands on its bound
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("Now = %v, want 5ms", e.Now())
	}
}
