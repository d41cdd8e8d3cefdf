package sim

// Waiter is the caller's record of one outstanding request, which its
// Requests entry reports to.
type Waiter interface {
	Resend() // a retransmit wait ran out with budget left; may Settle
	Expire() // the terminal wait or the deadline ran out; already settled
}

// Requests is one table of outstanding requests on the virtual clock: it
// hands out their ids, arms each one's retransmits and deadline, and
// settles each once — by a reply, a timer or Abort — cancelling what the
// entry still has armed. An entry is a Request embedded in the caller's
// record W, and is its own timers' Handler, so nothing allocates. The
// zero value is an empty table whose ids start at 0.
type Requests[W Waiter] struct {
	head    *Request[W] // the live entries, newest first
	next, n uint32      // the next id; the live count
}

// Request is one entry of a Requests table; its zero value is settled.
// It fires or cancels each of its events itself, so it keeps their raw
// nodes, nil once done, without an Event's generation: an entry fits in
// a DNS query's size class.
type Request[W Waiter] struct {
	t        *Requests[W] // nil once settled
	w        W
	next     *Request[W]
	eng      *Engine
	b        *Backoff
	id       uint32
	sends    uint32 // the first included
	wait, dl *event // the retransmit or terminal wait; the deadline
}

// Open files r, which must be settled, as w's entry and returns its id.
func (t *Requests[W]) Open(r *Request[W], w W) uint32 {
	if r.t != nil {
		panic("sim: Open of a live request")
	}
	*r = Request[W]{t: t, w: w, next: t.head, id: t.next}
	t.head, t.next, t.n = r, t.next+1, t.n+1
	return r.id
}

// Arm books r's timers on eng for its first send: the deadline, when
// positive, first; then, when b is not nil, the wait b schedules after
// the send. While b's budget lasts that wait ends in a Resend and the
// next wait, its jitter drawn from eng as it is armed; past the budget
// a request with a deadline arms nothing, one without waits out the last
// interval and expires.
func (r *Request[W]) Arm(eng *Engine, b *Backoff, deadline Duration) {
	r.eng, r.b, r.sends = eng, b, 1
	if deadline > 0 {
		r.dl = eng.at(eng.now+deadline, (*requestDeadline[W])(r)).n
	}
	r.arm()
}

func (r *Request[W]) arm() {
	if r.b == nil {
		return
	}
	if wait, more := r.b.Next(int(r.sends)-1, r.eng.rng); more || r.dl == nil {
		r.wait = r.eng.at(r.eng.now+max(wait, 0), r).n
	}
}

// Fire is r's wait running out.
func (r *Request[W]) Fire() {
	if r.wait = nil; int(r.sends) > r.b.Retries {
		r.Settle()
		r.w.Expire()
		return
	}
	r.sends++
	if r.w.Resend(); r.t != nil {
		r.arm()
	}
}

// requestDeadline is a request as its deadline's handler.
type requestDeadline[W Waiter] Request[W]

func (d *requestDeadline[W]) Fire() {
	r := (*Request[W])(d)
	r.dl = nil
	r.Settle()
	r.w.Expire()
}

// Settle ends r — a reply took it — cancelling what it has armed, and
// reports whether r was live: a reply after r settled, by a reply, a
// timer or Abort, is refused.
func (r *Request[W]) Settle() bool {
	if r.t == nil {
		return false
	}
	r.t.Reply(r.id)
	return true
}

// Get returns the waiter of the live entry filed under id, or the zero
// W when none is (a late or duplicate reply).
func (t *Requests[W]) Get(id uint32) (w W) {
	if r, _ := t.find(id); r != nil {
		w = r.w
	}
	return w
}

// Reply settles the live entry filed under id and returns its waiter,
// or the zero W when none is.
func (t *Requests[W]) Reply(id uint32) (w W) {
	if r, prev := t.find(id); r != nil {
		t.drop(r, prev)
		w = r.w
	}
	return w
}

// find returns the live entry filed under id, and its predecessor.
func (t *Requests[W]) find(id uint32) (r, prev *Request[W]) {
	for r = t.head; r != nil && r.id != id; r = r.next {
		prev = r
	}
	return r, prev
}

// drop settles r, whose predecessor in the live list is prev.
func (t *Requests[W]) drop(r, prev *Request[W]) {
	for _, n := range [2]*event{r.wait, r.dl} {
		if n != nil {
			r.eng.Cancel(Event{n: n, gen: n.gen})
		}
	}
	if prev == nil {
		t.head = r.next
	} else {
		prev.next = r.next
	}
	r.t, r.next, r.wait, r.dl = nil, nil, nil, nil
	t.n--
}

// ID is the id r was opened under.
func (r *Request[W]) ID() uint32 { return r.id }

// Sends counts r's transmissions: the first and each Resend since.
func (r *Request[W]) Sends() int { return int(r.sends) }

// Outstanding counts the live entries.
func (t *Requests[W]) Outstanding() int { return int(t.n) }

// Abort settles every live entry whose waiter match accepts (all when
// match is nil), then hands each, in id order, to then if it is not nil.
// All are settled first, so then may open entries, the one it holds
// included, without the sweep reaching them.
func (t *Requests[W]) Abort(match func(W) bool, then func(W)) {
	var settled, prev *Request[W] // settled collects them oldest first
	for r := t.head; r != nil; {
		next := r.next
		if match != nil && !match(r.w) {
			prev, r = r, next
			continue
		}
		t.drop(r, prev)
		r.next, settled, r = settled, r, next
	}
	for r := settled; r != nil; {
		next := r.next
		if r.next = nil; then != nil {
			then(r.w)
		}
		r = next
	}
}
