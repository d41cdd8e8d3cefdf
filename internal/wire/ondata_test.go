package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"jitsu/internal/api"
)

// TestClientRoutesAnyChunking feeds one session's worth of server frames —
// every response type, ready and done events, stats events of a watched
// stream in growing and shrinking shapes, a Stats response into an Into
// buffer — to a client in seeded random segments, some of them handed
// over from inside an event's closure, as a verb pumping the engine
// would. Every frame must be routed once and in order, its message equal
// to what was sent; and since the client decodes straight from the
// segments, each segment is scribbled over once delivered, which no
// message may notice.
func TestClientRoutesAnyChunking(t *testing.T) {
	type sent struct {
		typ byte
		id  uint32
		msg any
	}
	var frames []sent
	for _, m := range allMessages() {
		if m.typ == THelloAck || m.typ >= TRegisterResp {
			frames = append(frames, sent{m.typ, uint32(len(frames) + 1), m.msg})
		}
	}
	const watch, into = 900, 901
	for i, shape := range [][2]int{{5, 20}, {2, 4}, {6, 30}, {1, 0}} {
		frames = append(frames, sent{TStatsEvent, watch, shapedStats(shape[0], shape[1])})
		if i == 1 {
			frames = append(frames, sent{TStatsResp, into, shapedStats(4, 9)})
		}
	}
	var wireBytes []byte
	for _, f := range frames {
		var err error
		if wireBytes, err = Append(wireBytes, Version, f.typ, f.id, f.msg); err != nil {
			t.Fatal(err)
		}
	}
	encode := func(typ byte, id uint32, msg any) string {
		b, err := Append(nil, Version, typ, id, msg)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var segs [][]byte
		for rest := wireBytes; len(rest) > 0; {
			n := min(len(rest), 1+rng.Intn(1+rng.Intn(3000)))
			segs, rest = append(segs, rest[:n]), rest[n:]
		}
		c := &Client{resps: map[uint32]any{}, pending: map[uint32]hooks{}}
		var got []string // every event, encoded as it was delivered
		next := 0
		deliver := func() {
			seg := bytes.Clone(segs[next])
			next++
			(*clientConn)(c).Data(seg)
			for i := range seg {
				seg[i] = 0xAA
			}
		}
		// An event's closure pumps — hands over the next segment — at
		// random, so Data is re-entered mid-segment.
		pump := func() {
			if next < len(segs) && rng.Intn(2) == 0 {
				deliver()
			}
		}
		var buf api.StatsBuf
		for _, f := range frames {
			switch f.typ {
			case TReadyEvent:
				c.pending[f.id] = hooks{ready: func(err error) {
					got = append(got, encode(f.typ, f.id, ReadyEvent{Err: err.(*api.Error)}))
					pump()
				}}
			case TDoneEvent:
				c.pending[f.id] = hooks{done: func(ok bool) {
					got = append(got, encode(f.typ, f.id, DoneEvent{OK: ok}))
					pump()
				}}
			}
		}
		c.pending[watch] = hooks{stats: &stream{onStats: func(s api.StatsResponse) bool {
			before := encode(TStatsEvent, watch, s)
			got = append(got, before)
			pump()
			if after := encode(TStatsEvent, watch, s); after != before {
				t.Fatalf("seed %d: a snapshot changed while its OnStats pumped", seed)
			}
			return true
		}}}
		c.pending[into] = hooks{into: &buf}
		for next < len(segs) {
			deliver()
		}
		if c.closed || c.Frames != uint64(len(frames)) || len(c.rd.in) != 0 {
			t.Fatalf("seed %d: closed %v (%v), %d of %d frames routed, %d bytes held", seed, c.closed, c.closeErr, c.Frames, len(frames), len(c.rd.in))
		}
		var want []string
		for _, f := range frames {
			switch {
			case f.typ == TStatsEvent && f.id != watch:
				// no stream of that id: the snapshot is dropped
			case f.typ == TReadyEvent || f.typ == TDoneEvent || f.typ == TStatsEvent:
				want = append(want, encode(f.typ, f.id, f.msg))
			default:
				if r, ok := c.resps[f.id]; !ok || encode(f.typ, f.id, r) != encode(f.typ, f.id, f.msg) {
					t.Fatalf("seed %d: response 0x%02x/%d: got %+v, want %+v", seed, f.typ, f.id, r, f.msg)
				}
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: events arrived as\n%q\nwant\n%q", seed, got, want)
		}
		if buf.Resp.Services == nil || encode(TStatsResp, into, buf.Resp) != encode(TStatsResp, into, c.resps[into]) {
			t.Fatalf("seed %d: the Stats response was not decoded into its buffer", seed)
		}
	}
}

// heapGrowth runs f once and reports the objects and bytes it allocated.
func heapGrowth(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestLargeFrameReassemblesLinearly dribbles a ~200 KiB stats event to a
// client in 1,460-byte segments. A frame still arriving stays where it
// lies in rx, which grows by appending each segment, so reassembly
// allocates and copies in proportion to the frame — not to the frame
// times its segment count, as re-copying the partial on every segment
// once it outgrew the idle cap would.
func TestLargeFrameReassemblesLinearly(t *testing.T) {
	const watch, seg = 7, 1460
	frame, err := Append(nil, Version, TStatsEvent, watch, shapedStats(32, 290))
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) < 150<<10 || len(frame) > MaxFrame {
		t.Fatalf("frame is %d bytes, want ~200 KiB", len(frame))
	}
	c := &Client{resps: map[uint32]any{}, pending: map[uint32]hooks{}}
	events := 0
	c.pending[watch] = hooks{stats: &stream{onStats: func(api.StatsResponse) bool {
		events++
		return true
	}}}
	deliver := func() {
		for rest := frame; len(rest) > 0; {
			n := min(len(rest), seg)
			(*clientConn)(c).Data(rest[:n])
			rest = rest[n:]
		}
	}
	deliver()
	deliver() // the stream's buffer takes the frame's shape
	objects, bytes := heapGrowth(deliver)
	if c.closed || events != 3 {
		t.Fatalf("closed %v (%v), %d of 3 snapshots delivered", c.closed, c.closeErr, events)
	}
	t.Logf("%d-byte frame: %d objects, %d bytes", len(frame), objects, bytes)
	if objects > 40 || bytes > 8*uint64(len(frame)) {
		t.Fatalf("a %d-byte frame in %d segments allocated %d objects, %d bytes; want ≤ 40 and ≤ %d",
			len(frame), (len(frame)+seg-1)/seg, objects, bytes, 8*len(frame))
	}
}
