package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"jitsu/internal/api"
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
	buf, err := Append(nil, Version, TStatsResp, 9, s)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestDecoderReusesNames: once a session has seen a stats frame, the
// next one costs its collections and nothing per name.
func TestDecoderReusesNames(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the race build's")
	}
	buf := statsFrame(t, 64, 2)
	var d Decoder
	if _, _, _, _, _, err := d.Decode(buf); err != nil {
		t.Fatal(err)
	}
	// Services, triggers, registries; per registry counters, gauges,
	// hists and one bucket slice; the message boxed into the interface.
	const want = 3 + 2*4 + 1
	if got := testing.AllocsPerRun(50, func() { d.Decode(buf) }); got > want {
		t.Fatalf("a warm session decode allocates %.0f times, want <= %d", got, want)
	}
	cold := testing.AllocsPerRun(50, func() { Decode(buf) })
	if cold < want+64 {
		t.Fatalf("the stateless decode allocates %.0f times: it must not intern", cold)
	}
}

// TestDecodeAllocatesWhatTheFrameCarries: a count is a claim, not an
// allocation size. A body of 16 bytes declaring 65 535 services fails as
// it always did, without buying room for them first.
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
	// The cap bounds the allocation, never the loop: a body holding one
	// whole service of a declared two is short, not a one-service answer.
	one := statsFrame(t, 1, 0)
	two := append([]byte(nil), one...)
	two[headerLen+1] = 2
	if _, _, _, _, _, err := Decode(two); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("two services declared, one carried: err %v, want ErrBadFrame", err)
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
