package netsim

import "jitsu/internal/sim"

// slabSize holds 10 full-MTU frames, so every frame fits one; a slab is
// pointer-free, so the collector never scans it. A bridge sits on one
// and a kept frame keeps one: at 32 KiB fed_skew's 22 bridges cost 1 MiB
// of peak heap for 0.05 fewer allocations per fetch.
const slabSize = 16 << 10

// fabric is what one layer-2 segment allocates from: the slab sending
// NICs' copies are cut from and the free lists of hop and flood
// records. A Bridge owns one, shared by every link ConnectNIC makes; a
// stand-alone link (NewLink, Attach) owns its own.
type fabric struct {
	slab   []byte // the uncut rest of the current slab
	free   []*hop
	floods []*flood
}

// copyFrame cuts the fabric's copy of frame off the front of the slab.
// A region is never handed out twice — a short rest is abandoned for a
// fresh slab, not reset — and is clipped to its own length, so an
// append to a frame, or to a view of one, cannot reach its neighbour.
func (f *fabric) copyFrame(frame []byte) []byte {
	n := len(frame)
	if len(f.slab) < n {
		f.slab = make([]byte, slabSize)
	}
	buf := f.slab[:n:n]
	f.slab = f.slab[n:]
	return buf[:copy(buf, frame)]
}

// hop is one booked frame delivery: at its instant the frame is shown
// to the capture tap (if one was installed when it was booked) and
// handed to dst. Records are pooled per fabric and each is its own
// event's sim.Handler, so a hop costs one engine event and no
// allocation.
type hop struct {
	fab   *fabric
	dst   Port
	tap   *Capture
	dir   string
	frame []byte
}

// book schedules frame's delivery to dst after delay.
func (f *fabric) book(eng *sim.Engine, delay sim.Duration, dst Port, frame []byte, tap *Capture, dir string) {
	var h *hop
	if k := len(f.free); k > 0 {
		h = f.free[k-1]
		f.free = f.free[:k-1]
	} else {
		h = &hop{fab: f}
	}
	h.dst, h.frame, h.tap, h.dir = dst, frame, tap, dir
	eng.AfterHandler(delay, h)
}

// Fire delivers the frame. The record goes back to the pool first, so a
// delivery that sends (a bridge forwarding, a stack replying) reuses it.
func (h *hop) Fire() {
	dst, frame, tap, dir := h.dst, h.frame, h.tap, h.dir
	h.dst, h.frame, h.tap = nil, nil, nil
	h.fab.free = append(h.fab.free, h)
	if tap != nil {
		tap.record(dir, frame)
	}
	dst.Deliver(frame)
}

// flood is one booked broadcast: at its instant the frame is handed to
// each egress port captured at booking, in port order — the schedule a
// hop per port makes, whose hops fire at one instant with consecutive
// sequence numbers, so that nothing fires between them. Records are
// pooled per fabric and keep their egress list's array, sized to the
// bridge's port count when first used.
type flood struct {
	fab   *fabric
	dsts  []Port
	frame []byte
}

// flood takes a record from the pool, its egress list empty.
func (f *fabric) flood(ports int) *flood {
	if k := len(f.floods); k > 0 {
		fl := f.floods[k-1]
		f.floods = f.floods[:k-1]
		return fl
	}
	return &flood{fab: f, dsts: make([]Port, 0, ports)}
}

// Fire delivers the frame to each egress, then returns the record to
// the pool: a delivery that floods in turn takes another.
func (fl *flood) Fire() {
	for _, dst := range fl.dsts {
		dst.Deliver(fl.frame)
	}
	clear(fl.dsts)
	fl.dsts, fl.frame = fl.dsts[:0], nil
	fl.fab.floods = append(fl.fab.floods, fl)
}
