package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fakeClock is a hand-advanced virtual clock standing in for sim.Now.
type fakeClock struct{ at time.Duration }

func (c *fakeClock) now() time.Duration { return c.at }

func newTestTracer(capacity int) (*Tracer, *fakeClock) {
	clk := &fakeClock{}
	tr := NewTracer(capacity)
	tr.BindClock(clk.now)
	return tr, clk
}

func TestRingWraparoundAccounting(t *testing.T) {
	tr, clk := newTestTracer(4)
	for i := 0; i < 10; i++ {
		clk.at = time.Duration(i) * time.Millisecond
		tr.Instant(0, "test", "tick", Num("i", int64(i)))
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want ring capacity 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := tr.Events(nil)
	if len(evs) != 4 {
		t.Fatalf("Events returned %d, want 4", len(evs))
	}
	// Oldest-first order, holding the newest 4 of the 10 writes.
	for k, ev := range evs {
		want := int64(6 + k)
		if ev.Attrs[0].Num != want {
			t.Errorf("event %d: i = %d, want %d", k, ev.Attrs[0].Num, want)
		}
		if ev.At != time.Duration(want)*time.Millisecond {
			t.Errorf("event %d: At = %v, want %v", k, ev.At, time.Duration(want)*time.Millisecond)
		}
	}
}

func TestSpanNestingAcrossVirtualTimeJumps(t *testing.T) {
	tr, clk := newTestTracer(64)
	outer := tr.Begin(1, "test", "outer", Str("svc", "a"))
	clk.at = time.Hour // a huge virtual-time jump mid-span
	inner := tr.Begin(1, "test", "inner")
	clk.at = 2 * time.Hour
	tr.End(inner)
	clk.at = 3 * time.Hour
	tr.End(outer, Num("ok", 1))

	evs := tr.Events(nil)
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Kind != KindBegin || evs[1].Kind != KindBegin ||
		evs[2].Kind != KindEnd || evs[3].Kind != KindEnd {
		t.Fatalf("kinds out of order: %v %v %v %v", evs[0].Kind, evs[1].Kind, evs[2].Kind, evs[3].Kind)
	}
	if evs[1].Span != evs[2].Span || evs[0].Span != evs[3].Span || evs[0].Span == evs[1].Span {
		t.Fatalf("span ids do not pair: %d %d %d %d", evs[0].Span, evs[1].Span, evs[2].Span, evs[3].Span)
	}
	if evs[3].At-evs[0].At != 3*time.Hour {
		t.Fatalf("outer span duration = %v, want 3h", evs[3].At-evs[0].At)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events out of time order at %d", i)
		}
	}
}

func TestEndZeroSpanIsNoop(t *testing.T) {
	tr, _ := newTestTracer(8)
	tr.End(Span{})
	var nilTr *Tracer
	nilTr.Instant(0, "x", "y")
	nilTr.End(nilTr.Begin(0, "x", "y"))
	if tr.Len() != 0 || nilTr.Len() != 0 {
		t.Fatalf("no-op paths recorded events: %d %d", tr.Len(), nilTr.Len())
	}
}

// identicalRun drives the same event sequence twice and demands
// byte-identical exports and equal fingerprints.
func TestExportsDeterministic(t *testing.T) {
	run := func() *Tracer {
		tr, clk := newTestTracer(16)
		sp := tr.Begin(2, "activation", "boot", Str("svc", "svc00.family.name"), Num("mem_mib", 32))
		clk.at = 303 * time.Millisecond
		tr.End(sp, Str("state", "ready"))
		tr.Instant(2, "dns", "cache_miss", Str("name", "svc00.family.name"))
		for i := 0; i < 20; i++ { // force wraparound too
			tr.Instant(0, "gossip", "probe", Num("peer", int64(i)))
		}
		return tr
	}
	a, b := run(), run()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprints differ: %016x vs %016x", a.Fingerprint(), b.Fingerprint())
	}
	var ca, cb bytes.Buffer
	if err := WriteChromeTrace(&ca, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&cb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Fatal("Chrome exports differ between identical runs")
	}
	if !strings.HasPrefix(ca.String(), "[\n") || !strings.HasSuffix(ca.String(), "\n]\n") {
		t.Fatalf("Chrome export not a JSON array:\n%s", ca.String())
	}
}

func TestTraceRecordingAllocFree(t *testing.T) {
	tr, clk := newTestTracer(1 << 10)
	attrs := [2]Attr{Str("svc", "svc00"), Num("mem", 32)}
	allocs := testing.AllocsPerRun(1000, func() {
		clk.at += time.Millisecond
		sp := tr.Begin(1, "activation", "boot", attrs[0], attrs[1])
		tr.Instant(1, "dns", "hit")
		tr.End(sp)
	})
	if allocs > 0 {
		t.Fatalf("tracer hot path allocates: %.1f allocs/op", allocs)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry("board0")
	hits := uint64(7)
	r.CounterFunc("dns.cache_hits", func() uint64 { return hits })
	ext := uint64(41)
	r.CounterFunc("dns.queries", func() uint64 { return ext })
	depth := 3
	r.GaugeFunc("sim.pending", func() int64 { return int64(depth) })

	s := r.Snapshot()
	if s.Name != "board0" {
		t.Fatalf("snapshot name %q", s.Name)
	}
	if len(s.Counters) != 2 || s.Counters[0].Name != "dns.cache_hits" || s.Counters[1].Name != "dns.queries" {
		t.Fatalf("counters not name-sorted: %+v", s.Counters)
	}
	if s.Counters[0].Value != 7 || s.Counters[1].Value != 41 {
		t.Fatalf("counter values wrong: %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 3 {
		t.Fatalf("gauge wrong: %+v", s.Gauges)
	}
}
