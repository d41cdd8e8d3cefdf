package netsim

import (
	"fmt"
	"testing"
	"time"

	"jitsu/internal/sim"
)

// hostilePair wires two NICs over one direct link and returns both plus
// the link, with b counting arrivals.
func hostilePair(eng *sim.Engine, latency sim.Duration) (a, b *NIC, l *Link, got *[][]byte) {
	a = NewNIC(eng, "a", MACFor(1))
	b = NewNIC(eng, "b", MACFor(2))
	frames := &[][]byte{}
	b.SetHandler(func(f []byte) { *frames = append(*frames, append([]byte(nil), f...)) })
	l = NewLink(eng, a, b, latency, 0)
	a.peer = &l.aEnd
	return a, b, l, frames
}

func TestImpairLoss(t *testing.T) {
	eng := sim.New(1)
	a, b, l, _ := hostilePair(eng, 100*time.Microsecond)
	l.ImpairAtoB(Impairment{Loss: 0.3}, 42)

	const n = 2000
	for i := 0; i < n; i++ {
		eng.At(sim.Duration(i)*time.Millisecond, func() {
			a.Send(frame(b.Addr, a.Addr, "x"))
		})
	}
	eng.Run()
	if l.Stats.Dropped == 0 {
		t.Fatal("no drops at 30% loss")
	}
	if b.RxCount+l.Stats.Dropped != n {
		t.Fatalf("rx %d + dropped %d != %d", b.RxCount, l.Stats.Dropped, n)
	}
	// 30% ± a generous band.
	if l.Stats.Dropped < n/5 || l.Stats.Dropped > n/2 {
		t.Fatalf("dropped %d of %d, want ~30%%", l.Stats.Dropped, n)
	}
	if a.Drops != 0 {
		t.Fatalf("link loss charged to NIC: Drops=%d", a.Drops)
	}
}

func TestImpairLatencyAndJitter(t *testing.T) {
	eng := sim.New(1)
	a, b, l, _ := hostilePair(eng, 100*time.Microsecond)
	l.ImpairAtoB(Impairment{Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond}, 7)

	var ats []sim.Duration
	b.SetHandler(func([]byte) { ats = append(ats, eng.Now()) })
	for i := 0; i < 50; i++ {
		eng.At(sim.Duration(i)*time.Second, func() {
			a.Send(frame(b.Addr, a.Addr, "x"))
		})
	}
	eng.Run()
	if len(ats) != 50 {
		t.Fatalf("got %d arrivals", len(ats))
	}
	var sawJitter bool
	for i, at := range ats {
		off := at - sim.Duration(i)*time.Second
		lo := 100*time.Microsecond + 5*time.Millisecond
		hi := lo + 2*time.Millisecond
		if off < lo || off >= hi {
			t.Fatalf("arrival %d offset %v outside [%v,%v)", i, off, lo, hi)
		}
		if off != lo {
			sawJitter = true
		}
	}
	if !sawJitter {
		t.Fatal("jitter never drew a nonzero delay")
	}
}

func TestImpairDuplication(t *testing.T) {
	eng := sim.New(1)
	a, b, l, _ := hostilePair(eng, 100*time.Microsecond)
	l.ImpairAtoB(Impairment{DupProb: 1.0}, 3)

	for i := 0; i < 10; i++ {
		eng.At(sim.Duration(i)*time.Millisecond, func() {
			a.Send(frame(b.Addr, a.Addr, "x"))
		})
	}
	eng.Run()
	if b.RxCount != 20 {
		t.Fatalf("rx %d, want 20 (every frame duplicated)", b.RxCount)
	}
	if l.Stats.Duplicated != 10 || l.Stats.Delivered != 20 {
		t.Fatalf("stats dup=%d delivered=%d", l.Stats.Duplicated, l.Stats.Delivered)
	}
}

func TestImpairReorder(t *testing.T) {
	eng := sim.New(1)
	a, b, l, _ := hostilePair(eng, 100*time.Microsecond)
	// Every other frame held 10ms: with 1ms spacing, held frames are
	// overtaken by several successors.
	l.ImpairAtoB(Impairment{ReorderProb: 0.5, ReorderBy: 10 * time.Millisecond}, 11)

	var order []int
	b.SetHandler(func(f []byte) {
		order = append(order, int(f[14]))
	})
	for i := 0; i < 40; i++ {
		i := i
		eng.At(sim.Duration(i)*time.Millisecond, func() {
			f := frame(b.Addr, a.Addr, "s")
			f[14] = byte(i)
			a.Send(f)
		})
	}
	eng.Run()
	if len(order) != 40 {
		t.Fatalf("got %d arrivals", len(order))
	}
	inverted := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inverted++
		}
	}
	if inverted == 0 {
		t.Fatal("no reordering observed")
	}
	if l.Stats.Reordered == 0 {
		t.Fatal("Reordered counter not incremented")
	}
}

func TestImpairThrottle(t *testing.T) {
	eng := sim.New(1)
	a, b, l, _ := hostilePair(eng, 0)
	// 8 kb/s: a 100-byte frame (800 bits) serialises in 100ms.
	l.ImpairAtoB(Impairment{BitsPerSec: 8000}, 1)

	var ats []sim.Duration
	b.SetHandler(func([]byte) { ats = append(ats, eng.Now()) })
	payload := make([]byte, 86) // 86+14 = 100 bytes on the wire
	for i := 0; i < 3; i++ {
		eng.At(0, func() { a.Send(frame(b.Addr, a.Addr, string(payload))) })
	}
	eng.Run()
	want := []sim.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}
	if len(ats) != 3 {
		t.Fatalf("got %d arrivals", len(ats))
	}
	for i := range want {
		if ats[i] != want[i] {
			t.Fatalf("arrival %d at %v, want %v", i, ats[i], want[i])
		}
	}
}

func TestPartitionAndHeal(t *testing.T) {
	eng := sim.New(1)
	a, b, l, _ := hostilePair(eng, 100*time.Microsecond)

	eng.At(0, func() { a.Send(frame(b.Addr, a.Addr, "1")) })
	eng.At(1*time.Millisecond, func() { l.Partition() })
	eng.At(2*time.Millisecond, func() { a.Send(frame(b.Addr, a.Addr, "2")) })
	eng.At(3*time.Millisecond, func() { l.Heal() })
	eng.At(4*time.Millisecond, func() { a.Send(frame(b.Addr, a.Addr, "3")) })
	eng.Run()

	if b.RxCount != 2 {
		t.Fatalf("rx %d, want 2 (frame during partition dropped)", b.RxCount)
	}
	if l.Stats.Dropped != 1 {
		t.Fatalf("dropped %d, want 1", l.Stats.Dropped)
	}
}

func TestAsymmetricPartition(t *testing.T) {
	eng := sim.New(1)
	a := NewNIC(eng, "a", MACFor(1))
	b := NewNIC(eng, "b", MACFor(2))
	var aGot, bGot int
	a.SetHandler(func([]byte) { aGot++ })
	b.SetHandler(func([]byte) { bGot++ })
	l := NewLink(eng, a, b, 100*time.Microsecond, 0)
	a.peer = &l.aEnd
	b.peer = &l.bEnd

	// Cut only a->b: a is mute but not deaf.
	l.PartitionAtoB()
	eng.At(0, func() { a.Send(frame(b.Addr, a.Addr, "x")) })
	eng.At(0, func() { b.Send(frame(a.Addr, b.Addr, "y")) })
	eng.Run()
	if bGot != 0 {
		t.Fatal("a->b frame crossed a one-way partition")
	}
	if aGot != 1 {
		t.Fatal("b->a frame lost on a one-way a->b partition")
	}
}

func TestImpairedRunDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		eng := sim.New(99)
		a, b, l, _ := hostilePair(eng, 100*time.Microsecond)
		l.Impair(Impairment{
			Loss: 0.1, Jitter: 500 * time.Microsecond,
			ReorderProb: 0.05, DupProb: 0.05,
		}, 1234)
		cap := NewCapture(eng, 0)
		l.Tap(cap)
		for i := 0; i < 500; i++ {
			i := i
			eng.At(sim.Duration(i)*300*time.Microsecond, func() {
				f := frame(b.Addr, a.Addr, fmt.Sprintf("frame-%03d", i))
				a.Send(f)
			})
		}
		eng.Run()
		return cap.Fingerprint(), l.Stats.Dropped
	}
	fp1, d1 := run()
	fp2, d2 := run()
	if d1 == 0 {
		t.Fatal("no drops at 10% loss")
	}
	if fp1 != fp2 || d1 != d2 {
		t.Fatalf("impaired run not deterministic: fp %x vs %x, dropped %d vs %d", fp1, fp2, d1, d2)
	}
}

func TestCaptureRecordsBothDirections(t *testing.T) {
	eng := sim.New(1)
	a := NewNIC(eng, "a", MACFor(1))
	b := NewNIC(eng, "b", MACFor(2))
	a.SetHandler(func([]byte) {})
	b.SetHandler(func([]byte) {})
	l := NewLink(eng, a, b, 250*time.Microsecond, 0)
	a.peer = &l.aEnd
	b.peer = &l.bEnd
	cap := NewCapture(eng, 0)
	l.Tap(cap)

	eng.At(0, func() { a.Send(frame(b.Addr, a.Addr, "ping")) })
	eng.At(1*time.Millisecond, func() { b.Send(frame(a.Addr, b.Addr, "pong")) })
	eng.Run()

	if len(cap.Records) != 2 {
		t.Fatalf("captured %d frames, want 2", len(cap.Records))
	}
	r0, r1 := cap.Records[0], cap.Records[1]
	if r0.Dir != "a->b" || string(r0.Frame[14:]) != "ping" || r0.At != 250*time.Microsecond {
		t.Fatalf("record 0 = %v %q at %v", r0.Dir, r0.Frame[14:], r0.At)
	}
	if r1.Dir != "b->a" || string(r1.Frame[14:]) != "pong" {
		t.Fatalf("record 1 = %v %q", r1.Dir, r1.Frame[14:])
	}
}

func TestCaptureDropsBeyondCap(t *testing.T) {
	eng := sim.New(1)
	a, b, l, _ := hostilePair(eng, 0)
	cap := NewCapture(eng, 3)
	l.Tap(cap)
	for i := 0; i < 5; i++ {
		eng.At(sim.Duration(i)*time.Millisecond, func() {
			a.Send(frame(b.Addr, a.Addr, "x"))
		})
	}
	eng.Run()
	if len(cap.Records) != 3 || cap.Truncated != 2 {
		t.Fatalf("records=%d truncated=%d, want 3/2", len(cap.Records), cap.Truncated)
	}
}

func TestCaptureSeesDuplicates(t *testing.T) {
	eng := sim.New(1)
	a, b, l, _ := hostilePair(eng, 100*time.Microsecond)
	l.ImpairAtoB(Impairment{DupProb: 1.0}, 5)
	cap := NewCapture(eng, 0)
	l.Tap(cap)
	eng.At(0, func() { a.Send(frame(b.Addr, a.Addr, "x")) })
	eng.Run()
	if len(cap.Records) != 2 {
		t.Fatalf("captured %d frames, want 2 (original + duplicate)", len(cap.Records))
	}
	if b.RxCount != 2 {
		t.Fatalf("rx %d, want 2", b.RxCount)
	}
}

func TestNICDropCounters(t *testing.T) {
	eng := sim.New(1)
	a, b, _, _ := hostilePair(eng, 100*time.Microsecond)

	// TX while down: dropped and counted, not transmitted.
	a.Down = true
	if err := a.Send(frame(b.Addr, a.Addr, "x")); err != nil {
		t.Fatal(err)
	}
	if a.TxCount != 0 || a.Drops != 1 {
		t.Fatalf("down NIC: tx=%d drops=%d, want 0/1", a.TxCount, a.Drops)
	}
	a.Down = false

	// RX while down.
	b.Down = true
	a.Send(frame(b.Addr, a.Addr, "x"))
	eng.Run()
	if b.RxCount != 0 || b.Drops != 1 {
		t.Fatalf("down RX: rx=%d drops=%d, want 0/1", b.RxCount, b.Drops)
	}
	b.Down = false

	// RX with no handler.
	b.SetHandler(nil)
	a.Send(frame(b.Addr, a.Addr, "x"))
	eng.Run()
	if b.Drops != 2 {
		t.Fatalf("no-handler RX: drops=%d, want 2", b.Drops)
	}

	// Unplugged TX.
	c := NewNIC(eng, "c", MACFor(3))
	c.Send(frame(b.Addr, c.Addr, "x"))
	if c.Drops != 1 || c.TxCount != 0 {
		t.Fatalf("unplugged: tx=%d drops=%d, want 0/1", c.TxCount, c.Drops)
	}
}

func TestNICLinkAccessor(t *testing.T) {
	eng := sim.New(1)
	a, _, l, _ := hostilePair(eng, 0)
	if a.Link() != l {
		t.Fatal("NIC.Link() did not return the attached link")
	}
	c := NewNIC(eng, "c", MACFor(3))
	if c.Link() != nil {
		t.Fatal("unplugged NIC.Link() != nil")
	}
}
