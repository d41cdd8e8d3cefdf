package netsim

import (
	"hash/fnv"

	"jitsu/internal/sim"
)

// Packet capture sits at the Port.Deliver interposition point: a
// Capture on a link's delivery ends (Link.Tap) records a
// (virtual-time, direction, frame) tuple for every frame that actually
// arrives — after loss, so
// a capture on an impaired link shows what the receiver saw, exactly
// like a pcap taken on the far NIC. Records are appended in event
// order on the virtual clock, so a seeded run's capture stream is
// bit-reproducible and feeds the determinism fingerprint gate.

// CaptureRecord is one delivered frame.
type CaptureRecord struct {
	// At is the virtual instant the frame reached the port.
	At sim.Duration
	// Dir labels the direction or tap point ("a->b", "mgmt-rx", ...).
	Dir string
	// Frame is the delivered frame itself: shared and immutable, like
	// every frame past the sending NIC's copy.
	Frame []byte
}

// Capture is a bounded in-memory packet recorder.
type Capture struct {
	eng *sim.Engine
	// Records holds the captured frames in arrival order.
	Records []CaptureRecord
	// Truncated counts frames not recorded because the cap was hit.
	Truncated uint64
	max       int
}

// NewCapture creates a recorder bounded to max frames (<=0 means a
// 64Ki-frame default).
func NewCapture(eng *sim.Engine, max int) *Capture {
	if max <= 0 {
		max = 1 << 16
	}
	return &Capture{eng: eng, max: max}
}

// record appends one delivered frame (kept, not copied: a frame past
// its sender's copy is never written or reused).
func (c *Capture) record(dir string, frame []byte) {
	if len(c.Records) >= c.max {
		c.Truncated++
		return
	}
	c.Records = append(c.Records, CaptureRecord{At: c.eng.Now(), Dir: dir, Frame: frame})
}

// Tap records both directions of a link at their delivery instants:
// frames entering at AEnd are recorded as "a->b" when they reach the B
// port, and vice versa. Tapping an impaired link records survivors
// only — dropped frames never reach the far port, so they never reach
// the capture either.
func (l *Link) Tap(c *Capture) {
	l.aEnd.cap, l.aEnd.capDir = c, "a->b"
	l.bEnd.cap, l.bEnd.capDir = c, "b->a"
}

// Fingerprint hashes the capture stream (FNV-1a over every record's
// instant, direction and bytes, plus the truncation count). Two
// seeded runs over the same topology must produce identical values —
// the same contract experiment series and trace streams honour.
func (c *Capture) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, rec := range c.Records {
		writeU64(uint64(rec.At))
		h.Write([]byte(rec.Dir))
		writeU64(uint64(len(rec.Frame)))
		h.Write(rec.Frame)
	}
	writeU64(c.Truncated)
	return h.Sum64()
}
