package netsim

import "jitsu/internal/sim"

// hop is one booked frame delivery: at its instant the frame is shown
// to the capture tap (if one was installed when it was booked) and
// handed to dst. Records are pooled per Link and per Bridge and fire is
// bound when a record is first made — the idiom of sim.Engine's pooled
// nodes — so a hop costs one engine event and no allocation.
type hop struct {
	pool  *hopPool
	dst   Port
	tap   *Capture
	dir   string
	frame []byte
	fire  func()
}

// hopPool is a free list of hop records.
type hopPool struct{ free []*hop }

// book schedules frame's delivery to dst after delay.
func (p *hopPool) book(eng *sim.Engine, delay sim.Duration, dst Port, frame []byte, tap *Capture, dir string) {
	var h *hop
	if k := len(p.free); k > 0 {
		h = p.free[k-1]
		p.free = p.free[:k-1]
	} else {
		h = &hop{pool: p}
		h.fire = h.run
	}
	h.dst, h.frame, h.tap, h.dir = dst, frame, tap, dir
	eng.After(delay, h.fire)
}

// run delivers the frame. The record goes back to the pool first, so a
// delivery that sends (a bridge forwarding, a stack replying) reuses it.
func (h *hop) run() {
	dst, frame, tap, dir := h.dst, h.frame, h.tap, h.dir
	h.dst, h.frame, h.tap = nil, nil, nil
	h.pool.free = append(h.pool.free, h)
	if tap != nil {
		tap.record(dir, frame)
	}
	dst.Deliver(frame)
}
