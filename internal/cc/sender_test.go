package cc

import (
	"testing"
	"time"

	"jitsu/internal/sim"
)

const (
	testChunkMiB = 4
	testStateMiB = 18 // 4,4,4,4 and a short 2 MiB tail
	testRTO      = 10 * time.Millisecond
	testOpChunk  = 7
	testOpAck    = 8
	testID       = 0xC0FFEE
	mib          = 1 << 20
)

// link scripts the transport: for transmission try (1-based) of chunk
// idx it returns the delay of every ack copy the receiver's reply
// produces — none for a dropped frame, two for a duplicated one.
type link func(idx, try int) []sim.Duration

func ackAfter(d ...sim.Duration) []sim.Duration { return d }

// harness runs one Sender on a bare engine against a scripted link and
// holds the window-accounting invariant at every step. The test keeps
// one byte of window for itself throughout, so an over-release cannot
// hide behind the controller's clamp at zero.
type harness struct {
	t      *testing.T
	eng    *sim.Engine
	ctrl   *Controller // nil on the unpaced arm
	s      *Sender
	link   link
	sends  map[int]int // chunk idx -> transmissions seen
	done   []bool
	doneAt sim.Duration

	chunks, retx, aborts uint64
	retxHook             int
	abortAcked           int
	lastQueued           int // grant-queue length at the last transmission
}

const ballast = 1

func run(t *testing.T, paced bool, stateMiB, retries int, l link, poke func(h *harness)) *harness {
	h := &harness{t: t, eng: sim.New(1), link: l, sends: map[int]int{}, abortAcked: -1}
	if paced {
		h.ctrl = New(h.eng, Config{MSS: testChunkMiB * mib, initWindow: 4*testChunkMiB*mib + ballast,
			minWindow: testChunkMiB*mib + ballast, RTOMin: testRTO, InitRTO: testRTO, RTOMax: 64 * testRTO})
		h.ctrl.Acquire(ballast, func() {})
	}
	h.s = Send(h.eng, h.ctrl, Transfer{
		ID: testID, StateMiB: stateMiB, ChunkMiB: testChunkMiB,
		RTO: testRTO, Retries: retries, BitsPerSec: 1e9, OpChunk: testOpChunk,
		Send:   h.send,
		Chunks: &h.chunks, Retx: &h.retx, Aborts: &h.aborts,
		OnRetx:  func(int) { h.retxHook++ },
		OnAbort: func(acked int) { h.abortAcked = acked },
		Done: func(ok bool) {
			h.done = append(h.done, ok)
			h.doneAt = h.eng.Now()
			h.checkWindow("done")
			for i := range h.s.chunks {
				if !h.s.chunks[i].timer.Cancelled() {
					t.Errorf("chunk %d retransmit timer still armed at done", i)
				}
			}
		},
	})
	if poke != nil {
		poke(h)
	}
	h.eng.Run()
	if len(h.done) != 1 {
		t.Fatalf("done called %d times (%v), want exactly once", len(h.done), h.done)
	}
	if h.eng.Now() > h.doneAt+time.Second {
		t.Errorf("engine ran to %v after done at %v: a timer outlived the transfer", h.eng.Now(), h.doneAt)
	}
	if paced {
		if h.ctrl.InFlight() != ballast || h.ctrl.QueueLen() != 0 {
			t.Fatalf("controller after the transfer: inflight=%d queued=%d, want %d/0",
				h.ctrl.InFlight(), h.ctrl.QueueLen(), ballast)
		}
		h.ctrl.Release(ballast)
		if h.ctrl.InFlight() != 0 || h.ctrl.QueueLen() != 0 {
			t.Fatalf("controller leaked: inflight=%d queued=%d, want 0/0", h.ctrl.InFlight(), h.ctrl.QueueLen())
		}
	}
	return h
}

// checkWindow: the controller's in-flight account is exactly the bytes
// of the chunks that believe they hold window.
func (h *harness) checkWindow(when string) {
	if h.ctrl == nil {
		return
	}
	held := ballast
	for i := range h.s.chunks {
		if h.s.chunks[i].held {
			held += h.s.chunks[i].bytes
		}
	}
	if h.ctrl.InFlight() != held {
		h.t.Errorf("%s at %v: controller inflight=%d, chunks hold %d", when, h.eng.Now(), h.ctrl.InFlight(), held)
	}
}

// send is the scripted wire: it checks the chunk header, plays the
// receiver (AckHeader) and routes each surviving ack copy back the way
// the adapters do (ParseHeader -> OnAck).
func (h *harness) send(hdr []byte, wireBytes int) {
	op, id, idx, ok := ParseHeader(hdr)
	total := len(h.s.chunks)
	if !ok || len(hdr) != chunkHdrLen || op != testOpChunk || id != testID || int(hdr[12]) != total {
		h.t.Fatalf("bad chunk header % x", hdr)
	}
	want := testChunkMiB * mib
	if idx == total-1 {
		want = h.s.chunks[idx].bytes
	}
	if wireBytes != want {
		h.t.Errorf("chunk %d charged %d wire bytes, want %d", idx, wireBytes, want)
	}
	h.checkWindow("send")
	if h.ctrl != nil {
		h.lastQueued = h.ctrl.QueueLen()
	}
	h.sends[idx]++
	ack := AckHeader(testOpAck, id, idx)
	for _, d := range h.link(idx, h.sends[idx]) {
		h.eng.After(d, func() {
			op, id, idx, ok := ParseHeader(ack)
			if !ok || op != testOpAck || id != testID {
				h.t.Fatalf("bad ack header % x", ack)
			}
			h.s.OnAck(idx)
			h.checkWindow("ack")
		})
	}
}

func TestSender(t *testing.T) {
	prompt := func(int, int) []sim.Duration { return ackAfter(time.Millisecond) }
	cases := []struct {
		name    string
		retries int
		link    link
		poke    func(h *harness)
		wantOK  bool
		check   func(t *testing.T, h *harness)
	}{
		{name: "all acked", retries: 5, link: prompt, wantOK: true,
			check: func(t *testing.T, h *harness) {
				if h.chunks != 5 || h.retx != 0 {
					t.Errorf("chunks=%d retx=%d, want 5/0", h.chunks, h.retx)
				}
				if h.ctrl != nil && h.ctrl.SRTT() != time.Millisecond {
					t.Errorf("srtt = %v, want the link's 1ms", h.ctrl.SRTT())
				}
			}},
		{name: "duplicate and stale acks", retries: 5, wantOK: true,
			link: func(int, int) []sim.Duration { return ackAfter(time.Millisecond, 2*time.Millisecond) },
			poke: func(h *harness) {
				h.s.OnAck(4)  // before the chunk was ever sent
				h.s.OnAck(99) // no such chunk
			},
			check: func(t *testing.T, h *harness) {
				if h.chunks != 5 || h.retx != 0 {
					t.Errorf("chunks=%d retx=%d, want 5/0", h.chunks, h.retx)
				}
				if h.ctrl != nil && h.ctrl.Acks != 5 {
					t.Errorf("controller saw %d acks, want one per chunk", h.ctrl.Acks)
				}
			}},
		// The PR-9 leak shape: the first transmissions' acks take far
		// longer than the RTO, so chunks time out, settle via OnTimeout
		// and sit in the grant queue behind the collapsed window when
		// their acks finally land.
		{name: "late ack while re-acquire queued", retries: 5, wantOK: true,
			link: func(_, try int) []sim.Duration {
				if try == 1 {
					return ackAfter(100 * time.Millisecond)
				}
				return ackAfter(time.Millisecond)
			},
			check: func(t *testing.T, h *harness) {
				if h.retx == 0 {
					t.Error("RTT above RTO produced no timeouts — scenario not exercised")
				}
				// A chunk acked while it holds no window never reaches
				// the controller's OnAck.
				if h.ctrl != nil && h.ctrl.Acks >= 5 {
					t.Errorf("controller saw %d acks for 5 chunks: no ack raced a queued re-acquire", h.ctrl.Acks)
				}
			}},
		// A dead link: every chunk times out into the grant queue of a
		// window collapsed to one chunk, and the first to exhaust its
		// budget fails the transfer with the rest still queued.
		{name: "fail while re-acquires queued", retries: 1, wantOK: false,
			link: func(int, int) []sim.Duration { return nil },
			check: func(t *testing.T, h *harness) {
				if h.aborts != 1 || h.abortAcked != 0 {
					t.Errorf("aborts=%d after %d acked, want 1 after 0", h.aborts, h.abortAcked)
				}
				if h.ctrl != nil && h.lastQueued == 0 {
					t.Error("nothing queued for window behind the chunk that failed — scenario not exercised")
				}
			}},
		{name: "retries exhausted", retries: 2, wantOK: false,
			link: func(idx, _ int) []sim.Duration {
				if idx == 1 {
					return nil
				}
				return ackAfter(time.Millisecond)
			},
			check: func(t *testing.T, h *harness) {
				if h.sends[1] != 3 || h.retx != 2 {
					t.Errorf("lost chunk sent %d times, retx=%d, want 3 and 2", h.sends[1], h.retx)
				}
				if h.aborts != 1 || h.abortAcked != 4 {
					t.Errorf("aborts=%d after %d acked, want 1 after 4", h.aborts, h.abortAcked)
				}
			}},
	}
	for _, tc := range cases {
		for _, paced := range []bool{true, false} {
			name := tc.name + "/unpaced"
			if paced {
				name = tc.name + "/paced"
			}
			t.Run(name, func(t *testing.T) {
				h := run(t, paced, testStateMiB, tc.retries, tc.link, tc.poke)
				if h.done[0] != tc.wantOK {
					t.Fatalf("done(%v), want %v", h.done[0], tc.wantOK)
				}
				if h.retxHook != int(h.retx) {
					t.Errorf("OnRetx fired %d times for %d retransmits", h.retxHook, h.retx)
				}
				if tc.wantOK && (h.aborts != 0 || h.abortAcked != -1) {
					t.Errorf("successful transfer counted an abort")
				}
				tc.check(t, h)
			})
		}
	}
}

// The unpaced retransmit schedule is closed-form: the 500µs lead-in,
// then the fixed RTO doubling per retry, each timer extended by the
// serialisation time of the bytes in flight.
func TestSenderRetransmitSchedule(t *testing.T) {
	h := run(t, false, testChunkMiB, 2, func(int, int) []sim.Duration { return nil }, nil)
	serialise := sim.Duration(float64(testChunkMiB*mib*8) / 1e9 * float64(time.Second))
	want := 500*time.Microsecond + (1+2+4)*testRTO + 3*serialise
	if h.done[0] || h.doneAt != want {
		t.Fatalf("done(%v) at %v, want failure at %v", h.done[0], h.doneAt, want)
	}
}
