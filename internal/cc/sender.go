package cc

import (
	"encoding/binary"
	"time"

	"jitsu/internal/sim"
)

// Transfer is everything that distinguishes one bulk copy from another:
// the values are data the caller reads from its own configuration, the
// funcs are its transport and its bookkeeping. A Sender never asks who
// its caller is.
type Transfer struct {
	// ID names the copy on the wire; acks carrying it come back through
	// Sender.OnAck.
	ID uint32
	// StateMiB is cut into ChunkMiB chunks, the last one short.
	StateMiB, ChunkMiB int
	// RTO is the fixed base retransmit timeout of the unpaced arm; a
	// paced sender reads the controller's live RTO instead.
	RTO sim.Duration
	// Retries bounds the retransmissions of any one chunk; one more
	// timeout fails the transfer.
	Retries int
	// BitsPerSec is the nominal link rate the in-flight serialisation
	// allowance on every retransmit timer is computed from.
	BitsPerSec float64
	// OpChunk is the first header byte of a chunk datagram.
	OpChunk byte
	// Send puts one chunk header on the wire, charged there for
	// wireBytes. hdr is reused by the next chunk: Send must not keep it.
	Send func(hdr []byte, wireBytes int)
	// Chunks counts every chunk datagram, Retx the retransmits among
	// them, Aborts the transfers given up on.
	Chunks, Retx, Aborts *uint64
	// OnRetx and OnAbort, when set, observe a retransmit of chunk idx
	// and an abort after acked chunks (trace hooks).
	OnRetx  func(idx int)
	OnAbort func(acked int)
	// Done reports the outcome, exactly once.
	Done func(ok bool)
}

// Chunk and ack datagrams share a header prefix:
//
//	chunk [op, id:4, idx:4, total:4]  sender -> receiver
//	ack   [op, id:4, idx:4]           receiver -> sender
const (
	chunkHdrLen = 13
	ackHdrLen   = 9
)

// ParseHeader decodes the prefix common to chunk and ack datagrams.
func ParseHeader(payload []byte) (op byte, id uint32, idx int, ok bool) {
	if len(payload) < ackHdrLen {
		return 0, 0, 0, false
	}
	return payload[0], binary.BigEndian.Uint32(payload[1:]), int(binary.BigEndian.Uint32(payload[5:])), true
}

// AckHeader is the receiver's reply to chunk idx of transfer id. The
// receiver keeps no per-transfer state: every chunk datagram is simply
// acknowledged (duplicates re-acknowledged — the previous ack may be
// the frame that was lost), and the sender decides completion.
func AckHeader(op byte, id uint32, idx int) []byte {
	ack := make([]byte, ackHdrLen)
	ack[0] = op
	binary.BigEndian.PutUint32(ack[1:], id)
	binary.BigEndian.PutUint32(ack[5:], uint32(idx))
	return ack
}

// chunk is one chunk's sender-side state. held tracks whether the chunk
// currently owns granted controller window: the controller's contract
// is that every grant is settled by exactly one of
// OnAck/OnTimeout/Release, and a chunk whose timer fired has already
// settled via OnTimeout while its re-Acquire waits in the queue — a
// late ack or a transfer failure in that gap must not settle again.
type chunk struct {
	bytes  int
	tries  int
	sentAt sim.Duration
	sent   bool
	acked  bool
	held   bool
	timer  sim.Event
}

// Sender is the sender side of one windowed chunk copy: it acquires
// window from the uplink's Controller before every chunk transmits,
// returns it on ack, timeout or failure, retransmits lost chunks with a
// bounded budget, and reports the outcome once. With a nil controller
// (the unpaced ablation) every chunk goes on the wire immediately under
// the fixed doubling RTO — exactly the bufferbloat that falsely
// suspects gossip peers on a throttled link.
type Sender struct {
	eng      *sim.Engine
	ctrl     *Controller
	t        Transfer
	chunks   []chunk
	acked    int
	inflight int // unacked transmitted bytes (RTO serialisation allowance)
	finished bool
	hdr      [chunkHdrLen]byte
}

// Send starts copying t over the uplink ctrl paces (nil = unpaced). The
// 500µs lead-in models checkpoint serialisation on the source before
// the first byte moves.
func Send(eng *sim.Engine, ctrl *Controller, t Transfer) *Sender {
	total := max(1, (t.StateMiB+t.ChunkMiB-1)/t.ChunkMiB)
	s := &Sender{eng: eng, ctrl: ctrl, t: t, chunks: make([]chunk, total)}
	for i := range s.chunks {
		s.chunks[i].bytes = t.ChunkMiB << 20
	}
	if last := t.StateMiB - (total-1)*t.ChunkMiB; last > 0 {
		s.chunks[total-1].bytes = last << 20
	}
	s.hdr[0] = t.OpChunk
	binary.BigEndian.PutUint32(s.hdr[1:], t.ID)
	binary.BigEndian.PutUint32(s.hdr[9:], uint32(total))
	eng.After(500*time.Microsecond, s.start)
	return s
}

// start puts the copy in motion, every chunk at once: how many reach
// the wire now and how many wait is the window's decision.
func (s *Sender) start() {
	for i := range s.chunks {
		s.acquire(i)
	}
}

// acquire gets chunk idx onto the wire: immediately when unpaced,
// otherwise once the uplink controller grants it window. The chunk
// holds none until the grant fires — and if the ack (or the whole
// transfer's fate) lands first, the grant hands its bytes straight
// back.
func (s *Sender) acquire(idx int) {
	if s.ctrl == nil {
		s.transmit(idx)
		return
	}
	cs := &s.chunks[idx]
	s.ctrl.Acquire(cs.bytes, func() {
		if s.finished || cs.acked {
			s.ctrl.Release(cs.bytes)
			return
		}
		cs.held = true
		s.transmit(idx)
	})
}

// transmit sends chunk idx's header datagram — charged on the wire for
// the chunk's full byte count — and arms its retransmit timer.
func (s *Sender) transmit(idx int) {
	if s.finished {
		return
	}
	cs := &s.chunks[idx]
	*s.t.Chunks++
	cs.tries++
	if !cs.sent {
		cs.sent = true
		cs.sentAt = s.eng.Now()
		s.inflight += cs.bytes
	}
	binary.BigEndian.PutUint32(s.hdr[5:], uint32(idx))
	s.t.Send(s.hdr[:], cs.bytes)
	s.armTimer(idx)
}

// armTimer schedules chunk idx's retransmit: the wait after this send —
// doubling from the controller's live RTO, or the fixed one unpaced —
// plus a serialisation allowance for everything in flight ahead of it:
// the bytes occupy the shared link before the ack can exist.
func (s *Sender) armTimer(idx int) {
	cs := &s.chunks[idx]
	b := sim.Backoff{Initial: s.t.RTO, Factor: 2, Retries: s.t.Retries}
	if s.ctrl != nil {
		b.Initial = s.ctrl.RTO()
	}
	wait, more := b.Next(cs.tries-1, nil)
	wait += sim.Duration(float64(s.inflight*8) / s.t.BitsPerSec * float64(time.Second))
	cs.timer = s.eng.After(wait, func() { s.expire(idx, more) })
}

// expire is chunk idx's timeout: a retransmit while the schedule allows
// more, otherwise the transfer fails.
func (s *Sender) expire(idx int, more bool) {
	cs := &s.chunks[idx]
	if s.finished || cs.acked {
		return
	}
	if !more {
		s.fail()
		return
	}
	*s.t.Retx++
	if s.t.OnRetx != nil {
		s.t.OnRetx(idx)
	}
	if cs.held {
		// The timeout collapses the window; the retransmit re-queues
		// for its share of whatever is left.
		cs.held = false
		s.ctrl.OnTimeout(cs.bytes)
	}
	s.acquire(idx)
}

// OnAck retires chunk idx: its window returns to the controller (with
// an RTT sample when the chunk was never retransmitted — Karn's rule).
func (s *Sender) OnAck(idx int) {
	if s.finished || idx >= len(s.chunks) {
		return
	}
	cs := &s.chunks[idx]
	if !cs.sent || cs.acked {
		return // duplicate or stale ack
	}
	cs.acked = true
	s.eng.Cancel(cs.timer)
	s.inflight -= cs.bytes
	if cs.held {
		// A chunk awaiting its post-timeout re-grant holds no window —
		// its queued grant settles itself when it fires.
		cs.held = false
		var rtt sim.Duration
		if cs.tries == 1 {
			rtt = s.eng.Now() - cs.sentAt
		}
		s.ctrl.OnAck(cs.bytes, rtt)
	}
	s.acked++
	if s.acked == len(s.chunks) {
		s.finished = true
		s.t.Done(true)
	}
}

// fail abandons the transfer after a chunk exhausted its retries (the
// management path is gone): every outstanding chunk's window returns
// to the controller so concurrent copies on the same uplink keep
// moving.
func (s *Sender) fail() {
	s.finished = true
	for i := range s.chunks {
		cs := &s.chunks[i]
		s.eng.Cancel(cs.timer)
		if cs.held {
			// Only chunks currently holding window return it here;
			// queued grants (initial or post-timeout) see finished and
			// release their own bytes when they fire.
			cs.held = false
			s.ctrl.Release(cs.bytes)
		}
	}
	*s.t.Aborts++
	if s.t.OnAbort != nil {
		s.t.OnAbort(s.acked)
	}
	s.t.Done(false)
}
