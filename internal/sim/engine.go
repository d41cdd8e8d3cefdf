// Package sim provides a deterministic discrete-event simulation engine.
//
// All Jitsu subsystems run on virtual time supplied by an Engine: an
// event is a Handler scheduled at an absolute virtual instant, fired in
// timestamp order (ties broken by scheduling order), so a whole host
// simulation — hypervisor, XenStore, network stacks — is reproducible
// bit-for-bit from a seed and runs in real milliseconds regardless of how
// much virtual time it spans. Beside the engine: Dist, the latency
// distributions cost models draw from; Backoff, the one retransmit
// schedule every protocol here waits on; and Requests, the one table of
// outstanding requests — ids, retransmits, deadline, settle once — that
// the resolver, the federation root, the gossip agents and ping keep.
//
// The scheduler is built for the million-event workloads of the cluster
// experiments: two tiers over one pool of event nodes, so steady-state
// scheduling performs no allocation. An object that outlives its events
// (a connection, a pooled job) is their Handler, so arming one binds
// nothing; a func (At/After) is one too, converted for free. Nodes are
// named by index, so moving an event stores no pointer for the collector.
//
//   - A hierarchical timing wheel (6 levels x 64 slots of ~1 ms ticks)
//     holds every event whose tick lies beyond the wheel cursor: the
//     TIME_WAIT, retransmit and deadline timers that are nearly always
//     cancelled first. Insert and Cancel are O(1), and Cancel unlinks
//     and recycles the node at once: no dead node is ever resident.
//   - A 4-ary min-heap of (at, seq, index) entries holds the rest: the
//     cursor tick's own events and the rare timer beyond the wheel's
//     2^36-tick span, a handful of nodes. Cancel marks the node and leaves
//     it for the root to collect, or for a compaction when dead nodes
//     dominate.
//
// Invariant: every wheel node's tick is greater than the cursor, and
// before each pop every slot starting at or before the heap top's tick
// is flushed into the heap. So every event fires from the heap, in
// (at, seq) order whatever route its node took.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"
)

// Duration is virtual time measured from the start of the simulation.
// It reuses time.Duration so call sites can say 350*time.Millisecond.
type Duration = time.Duration

// event is one pooled scheduler node. Nodes are recycled through the
// engine's free list after they fire or their cancellation is collected;
// gen is bumped on every recycle so stale Event handles can never reach
// a node that now belongs to a different scheduling.
type event struct {
	at  Duration
	seq uint64 // tie-breaker: FIFO among events at the same instant
	h   Handler
	// gen is 64-bit so it cannot wrap within any feasible run: the LIFO
	// free list reuses one hot node for nearly every schedule in steady
	// state, and a 32-bit counter could wrap under a long-retained
	// handle in a multi-billion-event simulation.
	gen uint64
	idx uint32 // this node's place in Engine.nodes, fixed for its life
	// slot, next and prev place a stateWheel node in its slot's doubly
	// linked list, so Cancel unlinks it without a search; next also links
	// the free list. Links are node indices; 0 names none.
	next, prev uint32
	slot       uint16
	state      uint8
}

const (
	statePending   uint8 = iota // live, in the heap
	stateWheel                  // live, in a wheel slot
	stateCancelled              // dead, in the heap until collected
)

// Handler is what an event runs when it fires.
type Handler interface{ Fire() }

// funcHandler is a func as a Handler; being one pointer, it converts
// without allocating.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// Event is a cancellable handle to a scheduled callback, returned by the
// scheduling methods. It is a small value: copy it freely. The zero
// Event is inert (Cancel is a no-op, Cancelled reports true).
type Event struct {
	n   *event
	gen uint64
}

// Cancelled reports whether the event has been cancelled or has already run.
func (ev Event) Cancelled() bool {
	return ev.n == nil || ev.n.gen != ev.gen || ev.n.state == stateCancelled
}

// entry is a heap element: a node's index beside a copy of its key.
type entry struct {
	at  Duration
	seq uint64
	idx uint32
}

// Engine is the discrete-event scheduler. The zero value is not usable;
// construct with New.
type Engine struct {
	now     Duration
	nodes   []*event // every node ever made, by index; nodes[0] is none
	heap    []entry  // 4-ary min-heap on (at, seq)
	free    uint32   // the first recycled node, linked through next; 0 when none
	ncancel int      // cancelled nodes still sitting in the heap
	seq     uint64

	// The wheel: slots[l*wheelSlots+s] heads level l's list s (0 when
	// empty), and occ[l] has bit s set while that list is non-empty.
	slots  [wheelLevels * wheelSlots]uint32
	occ    [wheelLevels]uint64
	cursor uint64 // every wheel node's tick is greater
	nwheel int    // nodes resident in the wheel
	// nextStart is a lower bound on the start tick of the earliest
	// occupied slot (exact after settle), meaningful while nwheel > 0.
	nextStart uint64

	rng *rand.Rand
	// stopped, set by an event, makes the innermost Run/RunUntil return
	// after it: the engine tests halt runs mid-queue with it.
	stopped    bool
	fired      uint64
	maxPending int
}

// New returns an Engine at virtual time zero whose random source is
// seeded deterministically with seed.
func New(seed int64) *Engine {
	return &Engine{nodes: make([]*event, 1, 1+nodeBlock), rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Duration { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired returns the number of events executed so far (useful in tests).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still scheduled.
func (e *Engine) Pending() int { return len(e.heap) - e.ncancel + e.nwheel }

// MaxPending returns the queue-depth high-water mark — the largest
// Pending() ever reached. Observability gauges read it to spot event
// storms that drained before a snapshot looked.
func (e *Engine) MaxPending() int { return e.maxPending }

// At schedules fn to run at the absolute virtual instant t.
// Scheduling in the past panics: that is always a logic error in a
// discrete-event model.
func (e *Engine) At(t Duration, fn func()) Event { return e.at(t, funcHandler(fn)) }

// After schedules fn to run d after the current instant. Negative d is
// clamped to zero so cost models may return tiny negative jitter safely.
func (e *Engine) After(d Duration, fn func()) Event { return e.AfterHandler(d, funcHandler(fn)) }

// AfterHandler is After for a Handler: h.Fire runs d from now.
func (e *Engine) AfterHandler(d Duration, h Handler) Event { return e.at(e.now+max(d, 0), h) }

// at is the one scheduling path.
func (e *Engine) at(t Duration, h Handler) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if e.free == 0 {
		e.grow()
	}
	n := e.nodes[e.free]
	e.free, n.next = n.next, 0
	n.at, n.seq, n.h, n.state = t, e.seq, h, statePending
	e.seq++
	if tick := tickOf(t); tick <= e.cursor {
		e.push(entry{t, n.seq, n.idx})
	} else {
		e.link(n, tick)
	}
	if p := e.Pending(); p > e.maxPending {
		e.maxPending = p
	}
	return Event{n: n, gen: n.gen}
}

// compactThreshold is the minimum number of cancelled nodes before a
// compaction is considered; below it the lazy scheme is strictly cheaper.
const compactThreshold = 64

// Cancel removes a scheduled event. Cancelling the zero Event, an
// already-fired or already-cancelled event is a no-op, so callers need
// not track state. A wheel node is unlinked and recycled on the spot. A
// heap node is collected lazily when it reaches the root; when same-tick
// cancels come to dominate the heap it is compacted in one O(n) pass.
func (e *Engine) Cancel(ev Event) {
	if ev.Cancelled() {
		return
	}
	if ev.n.state == stateWheel {
		e.unlink(ev.n)
		e.recycle(ev.n)
		return
	}
	ev.n.state = stateCancelled
	ev.n.h = nil
	e.ncancel++
	if e.ncancel > compactThreshold && e.ncancel > len(e.heap)/2 {
		e.compact()
	}
}

// compact filters every cancelled node out of the heap and re-heapifies
// the survivors in place (Floyd's bottom-up build). Pop order is
// unaffected: (at, seq) is a total order, so any valid heap of the same
// live set drains identically.
func (e *Engine) compact() {
	live := e.heap[:0]
	for _, x := range e.heap {
		if n := e.nodes[x.idx]; n.state == stateCancelled {
			e.recycle(n)
			continue
		}
		live = append(live, x)
	}
	e.heap = live
	e.ncancel = 0
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		e.siftDown(i)
	}
}

// siftDown restores the heap property below index i.
func (e *Engine) siftDown(i int) {
	h := e.heap
	x := h[i]
	size := len(h)
	for {
		c := i<<2 + 1
		if c >= size {
			break
		}
		m := c
		for k := c + 1; k < c+4 && k < size; k++ {
			if h[k].less(h[m]) {
				m = k
			}
		}
		if !h[m].less(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

const nodeBlock = 64

// grow adds nodeBlock free nodes to the pool, in one allocation.
func (e *Engine) grow() {
	block := make([]event, nodeBlock)
	for i := range block {
		n := &block[i]
		n.idx, n.next = uint32(len(e.nodes)), e.free
		e.free = n.idx
		e.nodes = append(e.nodes, n)
	}
}

// recycle returns a node to the free list. Bumping gen invalidates every
// outstanding handle to this scheduling.
func (e *Engine) recycle(n *event) {
	n.gen++
	n.h = nil
	n.next, e.free = e.free, n.idx
}

// step fires the next event if it is due at or before t, and reports
// whether it did. First it makes heap[0] that event: a live node that no
// wheel node precedes. Slots starting beyond t's tick stay where they
// are, so a bounded run never drags the cursor past its bound.
func (e *Engine) step(t Duration) bool {
	for len(e.heap) > 0 && e.nodes[e.heap[0].idx].state == stateCancelled {
		e.recycle(e.pop())
		e.ncancel--
	}
	if e.nwheel > 0 && (len(e.heap) == 0 || e.nextStart <= tickOf(e.heap[0].at)) {
		e.settle(tickOf(t))
	}
	if len(e.heap) == 0 || e.heap[0].at > t {
		return false
	}
	n := e.pop()
	e.now = n.at
	e.fired++
	h := n.h
	e.recycle(n)
	h.Fire()
	return true
}

// Step executes the single next event, advancing virtual time to its
// instant. It reports false when the queue is empty.
func (e *Engine) Step() bool { return e.step(math.MaxInt64) }

// Run executes events until the queue drains or an event sets stopped.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to exactly t (even if no event lies there). A stop leaves the clock at
// the event that set it: events at or before t may still be pending.
func (e *Engine) RunUntil(t Duration) {
	e.stopped = false
	for e.step(t) {
		if e.stopped {
			return
		}
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor executes events for the next d of virtual time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now + d) }

// ---- hierarchical timing wheel in front of the heap ----
//
// Time is cut into ticks of 2^tickShift ns (~1 ms; 65 us and 8 ms
// measure the same, so the width is a constant, not a knob). A node
// whose tick first differs from the cursor in 6-bit digit l waits in
// level l, in the slot that digit names. Occupied slots of a level all
// lie ahead of the cursor's own digit, and every slot of a level starts
// before any slot of a higher one: the earliest slot is the lowest set
// bit of the lowest non-empty level. Flushing it moves the cursor to its
// start and re-links its nodes — into the heap when due, else lower.

const (
	tickShift   = 20
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelLevels = 6
	wheelSpan   = 1 << (wheelBits * wheelLevels) // ticks; beyond it a node goes to the heap
)

func tickOf(t Duration) uint64 { return uint64(t) >> tickShift }

// link puts n where its tick belongs relative to the cursor.
func (e *Engine) link(n *event, tick uint64) {
	diff := tick ^ e.cursor
	if diff == 0 || diff >= wheelSpan {
		n.state = statePending
		e.push(entry{n.at, n.seq, n.idx})
		return
	}
	level := uint(bits.Len64(diff)-1) / wheelBits
	shift := level * wheelBits
	slot := level<<wheelBits | uint(tick>>shift)&(wheelSlots-1)
	if start := tick >> shift << shift; e.nwheel == 0 || start < e.nextStart {
		e.nextStart = start
	}
	n.state, n.slot = stateWheel, uint16(slot)
	if n.next = e.slots[slot]; n.next != 0 {
		e.nodes[n.next].prev = n.idx
	}
	e.slots[slot] = n.idx
	e.occ[level] |= 1 << (slot & (wheelSlots - 1))
	e.nwheel++
}

// unlink takes n out of its wheel slot.
func (e *Engine) unlink(n *event) {
	if n.next != 0 {
		e.nodes[n.next].prev = n.prev
	}
	if n.prev != 0 {
		e.nodes[n.prev].next = n.next
	} else if e.slots[n.slot] = n.next; n.next == 0 {
		e.occ[n.slot>>wheelBits] &^= 1 << (n.slot & (wheelSlots - 1))
	}
	n.next, n.prev = 0, 0
	e.nwheel--
}

// settle flushes every slot that starts at or before both limit and the
// heap top's tick — or, while the heap is empty, the earliest slot — so
// that nothing left in the wheel can precede the heap top.
func (e *Engine) settle(limit uint64) {
	for e.nwheel > 0 {
		if len(e.heap) > 0 {
			limit = min(limit, tickOf(e.heap[0].at))
		}
		level := 0
		for e.occ[level] == 0 {
			level++
		}
		s := uint(bits.TrailingZeros64(e.occ[level]))
		shift := uint(level) * wheelBits
		start := e.cursor>>(shift+wheelBits)<<(shift+wheelBits) | uint64(s)<<shift
		e.nextStart = start
		if start > limit {
			return
		}
		slot := uint(level)<<wheelBits | s
		head := e.slots[slot]
		e.slots[slot] = 0
		e.occ[level] &^= 1 << s
		// Nothing in the wheel precedes this slot's earliest node: the
		// cursor goes straight to it (or to limit), not level by level.
		first := uint64(math.MaxUint64)
		for i := head; i != 0; i = e.nodes[i].next {
			first = min(first, tickOf(e.nodes[i].at))
		}
		e.cursor = max(start, min(first, limit))
		for i := head; i != 0; {
			n := e.nodes[i]
			i = n.next
			n.next, n.prev = 0, 0
			e.nwheel--
			e.link(n, tickOf(n.at))
		}
	}
}

// ---- 4-ary min-heap on (at, seq) ----
//
// A 4-ary layout halves the tree depth of a binary heap and keeps the
// four children of a node in adjacent cache lines, which is where the
// engine spends its time at cluster scale. Cancellation is lazy, so
// nothing removes from the middle. Entries hold no pointer, and e.heap is
// only re-assigned self-assigning (append, reslice), which stores no
// pointer unless the array moves: a sift pays no write barrier.

func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) push(x entry) {
	e.heap = append(e.heap, x)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

func (e *Engine) pop() *event {
	h := e.heap
	top := e.nodes[h[0].idx]
	last := len(h) - 1
	e.heap = e.heap[:last]
	if last > 0 {
		h[0] = h[last]
		e.siftDown(0)
	}
	return top
}
