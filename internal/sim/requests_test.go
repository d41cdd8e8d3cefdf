package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// rec is a Waiter that logs what its entry reports.
type rec struct {
	req  Request[*rec]
	name string
	log  *[]string
	eng  *Engine
}

func (w *rec) Resend() {
	*w.log = append(*w.log, fmt.Sprintf("%v %s resend %d", w.eng.Now(), w.name, w.req.Sends()))
}
func (w *rec) Expire() { *w.log = append(*w.log, fmt.Sprintf("%v %s expire", w.eng.Now(), w.name)) }

// TestRequestSettlesOnce races a reply, a timeout and an abort in every
// order, with the timeout a deadline and then a terminal wait (and the
// reply taken by Settle, then by Reply): the first to come settles the
// entry, the other two find nothing, and nothing is left armed.
func TestRequestSettlesOnce(t *testing.T) {
	orders := [][3]Duration{{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1}}
	for _, terminal := range []bool{false, true} {
		for _, o := range orders {
			reply, timeout, abort := o[0]*time.Second, o[1]*time.Second, o[2]*time.Second
			eng := New(1)
			var log []string
			var tbl Requests[*rec]
			w := &rec{name: "a", log: &log, eng: eng}
			id := tbl.Open(&w.req, w)
			if terminal {
				w.req.Arm(eng, &Backoff{Initial: timeout}, 0)
			} else {
				w.req.Arm(eng, nil, timeout)
			}
			eng.At(reply, func() {
				if terminal && tbl.Reply(id) == w || !terminal && w.req.Settle() {
					log = append(log, fmt.Sprintf("%v a reply", eng.Now()))
				}
			})
			eng.At(abort, func() {
				tbl.Abort(nil, func(w *rec) { log = append(log, fmt.Sprintf("%v %s abort", eng.Now(), w.name)) })
			})
			eng.Run()
			first := map[Duration]string{reply: "reply", timeout: "expire", abort: "abort"}[time.Second]
			if want := []string{"1s a " + first}; !slices.Equal(log, want) {
				t.Errorf("terminal wait %v, reply/timeout/abort at %v: log %q, want %q", terminal, o, log, want)
			}
			if tbl.Outstanding() != 0 || eng.Pending() != 0 || w.req.Settle() {
				t.Errorf("terminal wait %v, order %v: %d outstanding, %d events pending after the run", terminal, o, tbl.Outstanding(), eng.Pending())
			}
		}
	}
}

// TestReplyAfterTerminalWaitRefused: once the last wait has run out the
// entry is gone — a reply then settles nothing and Get finds nothing.
func TestReplyAfterTerminalWaitRefused(t *testing.T) {
	eng := New(1)
	var log []string
	var tbl Requests[*rec]
	w := &rec{name: "a", log: &log, eng: eng}
	id := tbl.Open(&w.req, w)
	w.req.Arm(eng, &Backoff{Initial: 100 * time.Millisecond, Factor: 2, Retries: 2}, 0)
	eng.Run()
	want := []string{"100ms a resend 2", "300ms a resend 3", "700ms a expire"}
	if !slices.Equal(log, want) {
		t.Fatalf("log %q, want %q", log, want)
	}
	if w.req.Settle() || tbl.Reply(id) != nil || tbl.Get(id) != nil || tbl.Outstanding() != 0 {
		t.Errorf("a reply after the terminal wait was taken")
	}
}

// TestAbortInIDOrder: Abort settles the entries its filter accepts in id
// order, leaves the rest armed, and does not reach what its hand-on
// opens — a fresh entry, or the aborted one re-opened.
func TestAbortInIDOrder(t *testing.T) {
	eng := New(1)
	var log []string
	var tbl Requests[*rec]
	ws := make([]*rec, 6)
	for i := range ws {
		ws[i] = &rec{name: fmt.Sprint(i), log: &log, eng: eng}
		if id := tbl.Open(&ws[i].req, ws[i]); id != uint32(i) {
			t.Fatalf("open %d got id %d", i, id)
		}
		ws[i].req.Arm(eng, nil, time.Second)
	}
	ws[3].req.Settle()
	var handed []string
	var fresh rec
	tbl.Abort(func(w *rec) bool { return w.name != "4" }, func(w *rec) {
		handed = append(handed, w.name)
		if w.name == "0" {
			tbl.Open(&w.req, w)
			tbl.Open(&fresh.req, &fresh)
		}
	})
	if want := []string{"0", "1", "2", "5"}; !slices.Equal(handed, want) {
		t.Errorf("abort handed on %v, want %v", handed, want)
	}
	if tbl.Outstanding() != 3 || tbl.Get(4) != ws[4] || tbl.Get(6) != ws[0] || tbl.Get(7) != &fresh {
		t.Errorf("after the abort: %d outstanding, want 3: entry 4, and 0 and a fresh entry re-filed as 6 and 7", tbl.Outstanding())
	}
	eng.Run()
	if want := []string{"1s 4 expire"}; !slices.Equal(log, want) {
		t.Errorf("log %q, want %q: the aborted entries' deadlines must be cancelled", log, want)
	}
	var all []string
	tbl.Abort(nil, func(w *rec) { all = append(all, w.name) })
	if want := []string{"0", ""}; !slices.Equal(all, want) || tbl.Outstanding() != 0 {
		t.Errorf("abort-all handed on %q, want %q", all, want)
	}
}

// TestArmedWaitsMatchBackoff: the waits a request books are
// Backoff.Next's, draw for draw — jitter from the engine's source, drawn
// as each wait is armed — with a deadline (arm nothing past the budget)
// and without one (wait out the last interval, then expire). After the
// exchange the engine's source is where a reference source that made
// the same draws is.
func TestArmedWaitsMatchBackoff(t *testing.T) {
	for _, b := range []Backoff{
		{Initial: 200 * time.Millisecond, Factor: 2, Jitter: 0.5, Retries: 3},
		{Initial: 50 * time.Millisecond, Factor: 1.5, Jitter: 0.25, Retries: 5},
		{Initial: 100 * time.Millisecond, Factor: 2, Retries: 2},
		{Initial: 100 * time.Millisecond},
		{},
	} {
		for _, deadline := range []Duration{0, 10 * time.Second} {
			eng := New(7)
			ref := rand.New(rand.NewSource(7))
			var log []string
			var tbl Requests[*rec]
			w := &rec{name: "a", log: &log, eng: eng}
			tbl.Open(&w.req, w)
			w.req.Arm(eng, &b, deadline)
			eng.Run()
			var want []string
			at := Duration(0)
			for k := 0; ; k++ {
				wait, more := b.Next(k, ref)
				if !more && deadline > 0 {
					want = append(want, fmt.Sprintf("%v a expire", deadline))
					break
				}
				at += wait
				if !more {
					want = append(want, fmt.Sprintf("%v a expire", at))
					break
				}
				want = append(want, fmt.Sprintf("%v a resend %d", at, k+2))
			}
			if !slices.Equal(log, want) {
				t.Errorf("%+v, deadline %v: log %q, want %q", b, deadline, log, want)
			}
			if got, want := eng.Rand().Int63(), ref.Int63(); got != want {
				t.Errorf("%+v, deadline %v: the engine's source is off the reference's after the exchange", b, deadline)
			}
		}
	}
}

// TestArmBooksDeadlineFirst: the deadline takes its seq before the first
// wait, so at one instant the deadline fires first.
func TestArmBooksDeadlineFirst(t *testing.T) {
	eng := New(1)
	var log []string
	var tbl Requests[*rec]
	w := &rec{name: "a", log: &log, eng: eng}
	tbl.Open(&w.req, w)
	w.req.Arm(eng, &Backoff{Initial: time.Second, Retries: 1}, time.Second)
	eng.Run()
	if want := []string{"1s a expire"}; !slices.Equal(log, want) || eng.Pending() != 0 {
		t.Errorf("log %q, want %q, and nothing left armed", log, want)
	}
}

func TestOpenOfLiveRequestPanics(t *testing.T) {
	var tbl Requests[*rec]
	w := &rec{}
	tbl.Open(&w.req, w)
	defer func() {
		if recover() == nil {
			t.Error("a second Open of a live request did not panic")
		}
	}()
	tbl.Open(&w.req, w)
}
