package sim

// refEngine is the scheduler as it stood before the timing wheel: one
// 4-ary heap of pooled nodes, lazy cancellation, compaction when dead
// nodes dominate. It is kept as the reference model the two-tier Engine
// is diffed against (wheel_test.go). The only change from the original
// is RunUntil's Stop fix, which both engines share.

type refEvent struct {
	at    Duration
	seq   uint64
	fn    func()
	gen   uint64
	state uint8
}

const (
	refPending uint8 = iota
	refCancelled
)

type refHandle struct {
	n   *refEvent
	gen uint64
}

func (ev refHandle) Cancelled() bool {
	return ev.n == nil || ev.n.gen != ev.gen || ev.n.state != refPending
}

type refEngine struct {
	now        Duration
	heap       []*refEvent
	free       []*refEvent
	ncancel    int
	seq        uint64
	stopped    bool
	fired      uint64
	maxPending int
}

func (e *refEngine) Now() Duration   { return e.now }
func (e *refEngine) Fired() uint64   { return e.fired }
func (e *refEngine) Pending() int    { return len(e.heap) - e.ncancel }
func (e *refEngine) MaxPending() int { return e.maxPending }

func (e *refEngine) At(t Duration, fn func()) refHandle {
	if t < e.now {
		panic("refEngine: scheduling in the past")
	}
	var n *refEvent
	if k := len(e.free); k > 0 {
		n = e.free[k-1]
		e.free[k-1] = nil
		e.free = e.free[:k-1]
	} else {
		n = &refEvent{}
	}
	n.at, n.seq, n.fn, n.state = t, e.seq, fn, refPending
	e.seq++
	e.push(n)
	if p := len(e.heap) - e.ncancel; p > e.maxPending {
		e.maxPending = p
	}
	return refHandle{n: n, gen: n.gen}
}

func (e *refEngine) After(d Duration, fn func()) refHandle {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

func (e *refEngine) Cancel(ev refHandle) {
	if ev.Cancelled() {
		return
	}
	ev.n.state = refCancelled
	ev.n.fn = nil
	e.ncancel++
	if e.ncancel > compactThreshold && e.ncancel > len(e.heap)/2 {
		e.compact()
	}
}

func (e *refEngine) compact() {
	h := e.heap
	live := h[:0]
	for _, n := range h {
		if n.state == refCancelled {
			e.recycle(n)
			continue
		}
		live = append(live, n)
	}
	for i := len(live); i < len(h); i++ {
		h[i] = nil
	}
	e.heap = live
	e.ncancel = 0
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		e.siftDown(i)
	}
}

func (e *refEngine) siftDown(i int) {
	h := e.heap
	n := h[i]
	size := len(h)
	for {
		c := i<<2 + 1
		if c >= size {
			break
		}
		m := c
		for k := c + 1; k < c+4 && k < size; k++ {
			if refLess(h[k], h[m]) {
				m = k
			}
		}
		if !refLess(h[m], n) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = n
}

func (e *refEngine) recycle(n *refEvent) {
	n.gen++
	n.fn = nil
	e.free = append(e.free, n)
}

func (e *refEngine) collect() {
	for len(e.heap) > 0 && e.heap[0].state == refCancelled {
		e.recycle(e.pop())
		e.ncancel--
	}
}

func (e *refEngine) Step() bool {
	e.collect()
	if len(e.heap) == 0 {
		return false
	}
	n := e.pop()
	e.now = n.at
	e.fired++
	fn := n.fn
	e.recycle(n)
	fn()
	return true
}

func (e *refEngine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

func (e *refEngine) RunUntil(t Duration) {
	e.stopped = false
	for {
		e.collect()
		if len(e.heap) == 0 || e.heap[0].at > t {
			break
		}
		e.Step()
		if e.stopped {
			return
		}
	}
	if e.now < t {
		e.now = t
	}
}

func (e *refEngine) RunFor(d Duration) { e.RunUntil(e.now + d) }

func (e *refEngine) Stop() { e.stopped = true }

func refLess(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *refEngine) push(n *refEvent) {
	h := append(e.heap, n)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !refLess(n, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = n
	e.heap = h
}

func (e *refEngine) pop() *refEvent {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	n := h[last]
	h[last] = nil
	h = h[:last]
	e.heap = h
	if last == 0 {
		return top
	}
	h[0] = n
	e.siftDown(0)
	return top
}
