package obs

import (
	"bufio"
	"hash/fnv"
	"io"
	"strconv"
	"time"
)

// Exports are built by walking the ring in order with hand-rolled JSON
// encoding — no map iteration, no reflection — so two same-seed runs
// write byte-identical files. That is the property the determinism CI
// job fingerprints.

// appendJSONString appends s as a JSON string literal. Metric and span
// names are ASCII dot-paths; anything else is \u-escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0',
				"0123456789abcdef"[c>>4], "0123456789abcdef"[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

func appendAttrs(b []byte, ev *Event) []byte {
	b = append(b, '{')
	for i := 0; i < int(ev.NAttr); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		a := &ev.Attrs[i]
		b = appendJSONString(b, a.Key)
		b = append(b, ':')
		if a.IsNum {
			b = strconv.AppendInt(b, a.Num, 10)
		} else {
			b = appendJSONString(b, a.Str)
		}
	}
	return append(b, '}')
}

var kindNames = [...]string{KindBegin: "b", KindEnd: "e", KindInstant: "i"}

// WriteChromeTrace writes the ring in Chrome trace-event format (the
// JSON Array Format chrome://tracing and Perfetto load). Spans are
// async events ("b"/"e" matched on id+cat+name) so overlapping
// activations on one lane render as parallel tracks; instants are
// thread-scoped. Timestamps are virtual microseconds with nanosecond
// fraction.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	var b []byte
	first := true
	for _, ev := range t.Events(nil) {
		ev := ev
		b = b[:0]
		if !first {
			b = append(b, ',', '\n')
		}
		first = false
		b = append(b, `{"name":`...)
		b = appendJSONString(b, ev.Name)
		b = append(b, `,"cat":`...)
		b = appendJSONString(b, ev.Cat)
		b = append(b, `,"ph":"`...)
		b = append(b, kindNames[ev.Kind]...)
		b = append(b, `","ts":`...)
		us := int64(ev.At / time.Microsecond)
		ns := int64(ev.At % time.Microsecond)
		b = strconv.AppendInt(b, us, 10)
		b = append(b, '.')
		b = append(b, byte('0'+ns/100), byte('0'+ns/10%10), byte('0'+ns%10))
		b = append(b, `,"pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(ev.TID), 10)
		switch ev.Kind {
		case KindBegin, KindEnd:
			b = append(b, `,"id":`...)
			b = appendJSONString(b, "0x"+strconv.FormatUint(ev.Span, 16))
		case KindInstant:
			b = append(b, `,"s":"t"`...)
		}
		if ev.NAttr > 0 {
			b = append(b, `,"args":`...)
			b = appendAttrs(b, &ev)
		}
		b = append(b, '}')
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// Fingerprint hashes the ring contents plus the drop count (FNV-1a).
// Two same-seed runs must produce equal fingerprints — the contract the
// determinism CI job diffs, alongside the metric series.
func (t *Tracer) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(n uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(n >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, ev := range t.Events(nil) {
		u64(uint64(ev.At))
		u64(uint64(ev.Kind))
		u64(uint64(ev.TID))
		u64(ev.Span)
		h.Write([]byte(ev.Cat))
		h.Write([]byte(ev.Name))
		for i := 0; i < int(ev.NAttr); i++ {
			a := &ev.Attrs[i]
			h.Write([]byte(a.Key))
			if a.IsNum {
				u64(uint64(a.Num))
			} else {
				h.Write([]byte(a.Str))
			}
		}
	}
	u64(t.Dropped())
	return h.Sum64()
}
