package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"jitsu/internal/api"
	"jitsu/internal/obs"
)

// sameDecode holds a session Decoder to the stateless Decode on one
// input: same header, same byte count, same error, and a message that
// re-encodes to the same bytes (NaN floats keep structs from comparing
// equal, so the accepted case compares the canonical form).
func sameDecode(t *testing.T, d *Decoder, data []byte, ver, typ byte, id uint32, msg any, n int, err error) {
	t.Helper()
	ver2, typ2, id2, msg2, n2, err2 := d.Decode(data)
	if ver2 != ver || typ2 != typ || id2 != id || n2 != n || fmt.Sprint(err2) != fmt.Sprint(err) {
		t.Fatalf("session decoder: v%d 0x%02x/%d n=%d err=%v; stateless: v%d 0x%02x/%d n=%d err=%v",
			ver2, typ2, id2, n2, err2, ver, typ, id, n, err)
	}
	if err != nil {
		if msg2 != nil {
			t.Fatalf("session decoder returned %T beside the error %v", msg2, err2)
		}
		return
	}
	a, errA := Append(nil, ver, typ, id, msg)
	b, errB := Append(nil, ver, typ, id, msg2)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("session decoder's 0x%02x message re-encodes differently (%v, %v):\n%x\nvs\n%x", typ, errA, errB, b, a)
	}
}

// TestDecoderMatchesDecode runs every golden frame and every frame type
// of the round-trip matrix through one Decoder — twice, so the second
// pass is answered from a warm intern table.
func TestDecoderMatchesDecode(t *testing.T) {
	var frames [][]byte
	for _, v := range goldenVectors() {
		buf, err := Append(nil, Version, v.typ, v.id, v.msg)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, buf)
	}
	for _, m := range allMessages() {
		buf, err := Append(nil, Version, m.typ, 77, m.msg)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, buf, buf[:len(buf)-1]) // and its truncation
	}
	var d Decoder
	for pass := 0; pass < 2; pass++ {
		for _, buf := range frames {
			ver, typ, id, msg, n, err := Decode(buf)
			sameDecode(t, &d, buf, ver, typ, id, msg, n, err)
			if err == nil {
				if _, _, _, msg2, _, _ := d.Decode(buf); !reflect.DeepEqual(msg, msg2) {
					t.Fatalf("0x%02x: session decoder returned %+v, stateless %+v", typ, msg2, msg)
				}
			}
		}
	}
	if len(d.names) == 0 {
		t.Fatal("the matrix carries stats frames, yet nothing was interned")
	}
}

// statsFrame encodes a snapshot of svcs services and regs registries,
// each registry carrying metrics rows of every kind.
func statsFrame(t testing.TB, svcs, regs int) []byte {
	t.Helper()
	var one, s api.StatsResponse
	for _, m := range allMessages() {
		if m.typ == TStatsResp {
			one = m.msg.(api.StatsResponse)
		}
	}
	for i := 0; i < svcs; i++ {
		sv := one.Services[0]
		sv.Name = fmt.Sprintf("svc%03d.family.name", i)
		s.Services = append(s.Services, sv)
	}
	s.Triggers = one.Triggers
	for i := 0; i < regs; i++ {
		reg := one.Registries[0]
		reg.Name = fmt.Sprintf("board%d", i)
		s.Registries = append(s.Registries, reg)
	}
	return mustAppend(t, s)
}

// mustAppend encodes s as a Stats response frame.
func mustAppend(t testing.TB, s api.StatsResponse) []byte {
	t.Helper()
	buf, err := Append(nil, Version, TStatsResp, 9, s)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestDecoderReusesNames: once a session has seen a stats frame, the
// next one costs its collections and nothing per name or per registry.
func TestDecoderReusesNames(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the race build's")
	}
	// Services, triggers, registries; one array each for all the
	// registries' counters and gauges; the message boxed into the
	// interface.
	const want = 3 + 2 + 1
	for _, regs := range []int{2, 5} {
		buf := statsFrame(t, 64, regs)
		var d Decoder
		if _, _, _, _, _, err := d.Decode(buf); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(50, func() { d.Decode(buf) }); got != want {
			t.Fatalf("%d registries: a warm session decode allocates %.0f times, want %d", regs, got, want)
		}
		cold := testing.AllocsPerRun(50, func() { Decode(buf) })
		if cold < want+64 {
			t.Fatalf("%d registries: the stateless decode allocates %.0f times: it must not intern", regs, cold)
		}
	}
}

// shapedStats is a snapshot of regs registries: registry i carries
// rows+i counters and rows/2 gauges.
func shapedStats(regs, rows int) api.StatsResponse {
	s := api.StatsResponse{Services: []api.ServiceStats{{Name: "svc.family.name"}}}
	for i := 0; i < regs; i++ {
		reg := obs.Snapshot{Name: fmt.Sprintf("board%d", i)}
		for j := 0; j < rows+i; j++ {
			reg.Counters = append(reg.Counters, obs.CounterSnap{Name: fmt.Sprintf("c%03d", j), Value: uint64(i*j + 1)})
		}
		for j := 0; j < rows/2; j++ {
			reg.Gauges = append(reg.Gauges, obs.GaugeSnap{Name: fmt.Sprintf("g%03d", j), Value: int64(j - i)})
		}
		s.Registries = append(s.Registries, reg)
	}
	return s
}

// checkRowCaps fails if any row slice of s has room past its rows, which
// an append would write into a neighbour's.
func checkRowCaps(t *testing.T, when string, s api.StatsResponse) {
	t.Helper()
	for _, r := range s.Registries {
		if cap(r.Counters) != len(r.Counters) || cap(r.Gauges) != len(r.Gauges) {
			t.Fatalf("%s: %s's rows have room to append into a neighbour", when, r.Name)
		}
	}
}

// TestDecoderSizesFromTheLastFrame feeds one session stats frames whose
// registries and rows grow, hold, shrink and grow again. Each
// decode equals the stateless one and the snapshot encoded, no row has
// room past its end, and no frame's decode disturbs an earlier frame's
// message, which its caller may still hold.
func TestDecoderSizesFromTheLastFrame(t *testing.T) {
	shapes := [][2]int{{2, 4}, {3, 8}, {5, 20}, {5, 20}, {6, 24}, {2, 3}, {1, 0}, {4, 10}, {1, 40}}
	var d Decoder
	var held []api.StatsResponse // every message decoded so far
	var sent []api.StatsResponse // and what was encoded for it
	for _, sh := range shapes {
		when := fmt.Sprintf("registries %d, rows %d", sh[0], sh[1])
		want := shapedStats(sh[0], sh[1])
		buf := mustAppend(t, want)
		_, _, _, msg, _, err := d.Decode(buf)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		_, _, _, stateless, _, _ := Decode(buf)
		got := msg.(api.StatsResponse)
		if !reflect.DeepEqual(got, stateless) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: session decoder returned\n %+v\nstateless\n %+v\nencoded\n %+v", when, got, stateless, want)
		}
		checkRowCaps(t, when, got)
		held, sent = append(held, got), append(sent, want)
		for i := range held {
			if !reflect.DeepEqual(held[i], sent[i]) {
				t.Fatalf("%s: frame %d's message changed under a later decode", when, i)
			}
		}
	}
}

// TestDecodeAllocatesWhatTheFrameCarries: a count is a claim, not an
// allocation size, and neither is the size of a session's last frame. A
// body of 16 bytes declaring 65 535 services fails as it always did,
// without buying room for them first.
func TestDecodeAllocatesWhatTheFrameCarries(t *testing.T) {
	body := append([]byte{0xff, 0xff}, make([]byte, 14)...)
	frame := append([]byte{0, 0, 0, byte(headerLen - 4 + len(body)), Version, TStatsResp, 0, 0, 0, 9}, body...)
	for _, d := range []*Decoder{nil, new(Decoder)} {
		if _, _, _, msg, _, err := d.Decode(frame); !errors.Is(err, ErrBadFrame) || msg != nil {
			t.Fatalf("short stats body: msg %v err %v, want ErrBadFrame", msg, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			d.Decode(frame)
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / 100; got >= 4<<10 {
			t.Fatalf("a 16-byte body made the decoder allocate %d bytes", got)
		}
	}
	// Nor is a session's last frame. After a frame of some 20 000
	// counters, a registry declaring 65 535 counters in a body carrying
	// 100 fails at the count, having allocated less than the body's size;
	// one carrying the 100 counters it declares, then failing, has bought
	// room for no more rows than its body holds.
	var d Decoder
	big := mustAppend(t, shapedStats(8, 2500))
	want := reflect.ValueOf(&d.rows.Counters).Elem().FieldByName("want")
	if _, _, _, _, _, err := d.Decode(big); err != nil || want.Int() < 20000 {
		t.Fatalf("the session expects %d counters after a frame of 20 000 (%v)", want.Int(), err)
	}
	carried := make([]byte, 100*(2+8)) // 100 unnamed zero counters
	overdrawn := slices.Concat([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0xff, 0xff}, carried)
	honest := slices.Concat([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 100}, carried, []byte{0xff, 0xff})
	for _, c := range []struct {
		name  string
		body  []byte
		limit int
	}{
		{"65 535 counters declared, 100 carried", overdrawn, len(overdrawn)},
		// A 10-byte counter on the wire is a CounterSnap in memory; 1 KiB
		// covers the registry's row and size-class rounding.
		{"100 counters, then 65 535 gauges declared", honest, 100*int(unsafe.Sizeof(obs.CounterSnap{})) + 1<<10},
	} {
		n := headerLen - 4 + len(c.body)
		frame := slices.Concat([]byte{0, 0, byte(n >> 8), byte(n), Version, TStatsResp, 0, 0, 0, 9}, c.body)
		var alloc uint64
		for i := 0; i < 10; i++ {
			d.Decode(big) // the session's last frame is the big one, every time
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, _, msg, _, err := d.Decode(frame)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadFrame) || msg != nil {
				t.Fatalf("%s: msg %v err %v, want ErrBadFrame", c.name, msg, err)
			}
			alloc += after.TotalAlloc - before.TotalAlloc
		}
		if alloc/10 > uint64(c.limit) {
			t.Fatalf("%s: a %d-byte body made the session decoder allocate %d bytes, want <= %d", c.name, len(c.body), alloc/10, c.limit)
		}
	}

	// The count bounds the allocation, never the loop: a body holding one
	// whole service of a declared two is short, not a one-service answer,
	// whether too few bytes follow for two (no registries) or enough do
	// and only the walk finds them wrong (five registries).
	for _, regs := range []int{0, 5} {
		two := statsFrame(t, 1, regs)
		two[headerLen+1] = 2
		if _, _, _, _, _, err := Decode(two); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%d registries: two services declared, one carried: err %v, want ErrBadFrame", regs, err)
		}
	}
}

// TestInternTableStopsAtCap: past maxInterned names the table is full
// and further names allocate per frame, as without a Decoder.
func TestInternTableStopsAtCap(t *testing.T) {
	var d Decoder
	for i := 0; i < maxInterned+500; i++ {
		name := fmt.Sprintf("svc%d", i)
		if got := d.intern([]byte(name)); got != name {
			t.Fatalf("intern(%q) = %q", name, got)
		}
	}
	if len(d.names) != maxInterned {
		t.Fatalf("table holds %d names, want the cap %d", len(d.names), maxInterned)
	}
	if got := d.intern([]byte("svc0")); got != "svc0" {
		t.Fatalf("a name interned before the table filled reads %q", got)
	}
	late := []byte(fmt.Sprintf("svc%d", maxInterned+1))
	if allocs := testing.AllocsPerRun(20, func() { d.intern(late) }); allocs != 1 {
		t.Fatalf("a name past the cap costs %.0f allocations per decode, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { d.intern([]byte("svc7")) }); allocs != 0 {
		t.Fatalf("a table hit costs %.0f allocations, want 0", allocs)
	}
}
