package netsim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"testing"
	"time"

	"jitsu/internal/sim"
)

// The ownership rule under test: the sending NIC copies once, and that
// copy is shared by every port, tap and receiver — immutable and never
// reused, so receivers may keep it. Each test sends from one scratch
// buffer it overwrites between sends, the way netstack does, and has
// the receivers keep the slices they were handed.

// sendFromScratch sends each payload from one reused buffer.
func sendFromScratch(n *NIC, dst MAC, payloads ...string) {
	scratch := make([]byte, MaxFrame)
	for _, p := range payloads {
		f := scratch[:14+len(p)]
		copy(f[0:6], dst[:])
		copy(f[6:12], n.Addr[:])
		copy(f[14:], p)
		n.Send(f)
	}
	for i := range scratch {
		scratch[i] = 0xee
	}
}

func payloads(frames [][]byte) []string {
	out := make([]string, len(frames))
	for i, f := range frames {
		out[i] = string(f[14:])
	}
	return out
}

func TestFloodedBroadcastSurvivesScratchReuse(t *testing.T) {
	eng, _, nics := bridgedPair(t, 4)
	kept := make([][][]byte, len(nics))
	for i, n := range nics[1:] {
		n.SetHandler(func(f []byte) { kept[i+1] = append(kept[i+1], f) })
	}
	sendFromScratch(nics[0], Broadcast, "who-has .1", "who-has .2")
	eng.Run()
	for i := 1; i < len(nics); i++ {
		if got := fmt.Sprint(payloads(kept[i])); got != "[who-has .1 who-has .2]" {
			t.Fatalf("receiver %d kept %s", i, got)
		}
		// A flood hands every egress the sender's one copy.
		if &kept[i][0][0] != &kept[1][0][0] {
			t.Fatalf("receiver %d got its own copy of a flooded frame", i)
		}
	}
}

func TestDuplicatedFrameSurvivesScratchReuse(t *testing.T) {
	eng := sim.New(1)
	a, b, l, _ := hostilePair(eng, 100*time.Microsecond)
	var kept [][]byte
	b.SetHandler(func(f []byte) { kept = append(kept, f) })
	l.ImpairAtoB(Impairment{DupProb: 1.0}, 5)
	cap := NewCapture(eng, 0)
	l.Tap(cap)
	sendFromScratch(a, b.Addr, "one", "two")
	eng.Run()
	if got := fmt.Sprint(payloads(kept)); got != "[one one two two]" {
		t.Fatalf("receiver kept %s", got)
	}
	// The tap saw every delivered frame, in delivery order.
	if len(cap.Records) != len(kept) {
		t.Fatalf("captured %d frames, delivered %d", len(cap.Records), len(kept))
	}
	for i, rec := range cap.Records {
		if string(rec.Frame) != string(kept[i]) || rec.Dir != "a->b" {
			t.Fatalf("record %d = %s %q, delivered %q", i, rec.Dir, rec.Frame[14:], kept[i][14:])
		}
	}
}

// TestTapInstalledMidFlight pins what a hop record carries: the tap
// that was installed when the frame was booked, not when it lands.
func TestTapInstalledMidFlight(t *testing.T) {
	eng := sim.New(1)
	a, b, l, got := hostilePair(eng, time.Millisecond)
	a.Send(frame(b.Addr, a.Addr, "before"))
	cap := NewCapture(eng, 0)
	l.Tap(cap)
	a.Send(frame(b.Addr, a.Addr, "after"))
	eng.Run()
	if len(*got) != 2 || len(cap.Records) != 1 || string(cap.Records[0].Frame[14:]) != "after" {
		t.Fatalf("delivered %d, captured %v", len(*got), cap.Records)
	}
}

// TestAppendToAFrameLeavesTheSlabAlone: frames are cut back to back
// from one slab, each clipped to its own length, so a receiver that
// appends to the frame it kept (a UDP consumer growing a payload) gets
// memory of its own and the next frame keeps its bytes.
func TestAppendToAFrameLeavesTheSlabAlone(t *testing.T) {
	eng := sim.New(1)
	a, b, _, _ := hostilePair(eng, 20*time.Microsecond)
	var kept [][]byte
	b.SetHandler(func(f []byte) { kept = append(kept, f) })
	sendFromScratch(a, b.Addr, "one", "two")
	eng.Run()
	if len(kept) != 2 || len(kept[0]) != cap(kept[0]) {
		t.Fatalf("kept %d frames, the first with len %d cap %d", len(kept), len(kept[0]), cap(kept[0]))
	}
	_ = append(kept[0], "overrun"...)
	if got := fmt.Sprint(payloads(kept)); got != "[one two]" {
		t.Fatalf("after an append to the first frame the receiver holds %s", got)
	}
}

// mallocs counts the heap objects fn allocates, with the collector off:
// a cycle allocates a handful of its own. The count is the process's,
// and an OS thread the runtime starts meanwhile (more likely on a loaded
// machine) allocates its m and g structs into it, so a run during which
// one started is measured again.
func mallocs(fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	threads := pprof.Lookup("threadcreate")
	for try := 0; ; try++ {
		var before, after runtime.MemStats
		n := threads.Count()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if threads.Count() == n || try == 3 {
			return after.Mallocs - before.Mallocs
		}
	}
}

func TestHopAllocs(t *testing.T) {
	// What a frame costs the fabric is its bytes' share of a slab,
	// however many hops it takes. The count is a total over a run long
	// enough to cross slab refills: a per-op average rounds 1/1000 down
	// to 0 and would pass just as well for a slab that was never refilled.
	const frames = 10000
	eng := sim.New(1)
	a, b, _, _ := hostilePair(eng, 20*time.Microsecond)
	b.SetHandler(func([]byte) {})
	f := frame(b.Addr, a.Addr, "x")
	send := func(n *NIC) func() {
		return func() {
			for i := 0; i < frames; i++ {
				n.Send(f)
				eng.Run()
			}
		}
	}
	send(a)() // fill the hop pool and the engine's
	limit := uint64(frames*len(f)/slabSize + 2)
	link := mallocs(send(a))

	eng, _, nics := bridgedPair(t, 3)
	for _, n := range nics {
		n.SetHandler(func([]byte) {})
	}
	f = frame(nics[1].Addr, nics[0].Addr, "x")
	nics[1].Send(frame(nics[0].Addr, nics[1].Addr, "learn"))
	send(nics[0])()
	bridged := mallocs(send(nics[0]))
	if link == 0 || link > limit || bridged == 0 || bridged > limit {
		t.Fatalf("allocs for %d frames of %d bytes: link %d, link+bridge+link %d, want 1..%d each",
			frames, len(f), link, bridged, limit)
	}
}
