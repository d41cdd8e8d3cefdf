// Package blockdev is the simulated per-board block device behind the
// disk checkpoint tier: a slot-allocated store (fixed-size slots over
// one bdev, ndn-dpdk style) with a seek+transfer latency model driven
// by the simulation's virtual clock.
//
// The device sits BELOW internal/core in the layering: core imports
// blockdev, blockdev imports only internal/sim. It knows nothing about
// services or checkpoints — it allocates slots, and it prices reads and
// writes. All ordering is FIFO through a single busy window, so two
// same-seed runs schedule identical transfer completions and a promote
// racing its own demotion's write is serialized by construction.
package blockdev

import (
	"fmt"
	"time"

	"jitsu/internal/sim"
)

// Config sizes one device and its latency model. The zero value means
// "no disk" (core treats a nil device as a board without storage).
type Config struct {
	// SlotMiB is the fixed allocation unit; every stored object rounds
	// up to whole slots.
	SlotMiB int
	// Slots is the device capacity in slots.
	Slots int
	// SeekTime is the fixed per-operation positioning cost.
	SeekTime sim.Duration
	// BytesPerSec is the sequential transfer rate.
	BytesPerSec float64
}

// DefaultConfig models the SD-card-class storage an embedded board
// actually carries: 16 GiB in 4 MiB slots, ~6ms seek, 40 MB/s
// sequential — slow enough that a disk restore costs visibly more than
// a warm restore, fast enough to stay well under a full cold boot.
func DefaultConfig() Config {
	return Config{
		SlotMiB:     4,
		Slots:       4096,
		SeekTime:    6 * time.Millisecond,
		BytesPerSec: 40e6,
	}
}

// Device is one board's checkpoint store.
type Device struct {
	cfg Config
	eng *sim.Engine

	// free is the slot freelist, LIFO: deterministic reuse order.
	free []int
	// busyUntil is the end of the last queued transfer: the single
	// request queue every operation serializes through.
	busyUntil sim.Duration

	// Reads / Writes count completed transfer operations; BytesRead /
	// BytesWritten total their payloads.
	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
	// QueueHighWaterMiB tracks the deepest backlog (in queued transfer
	// time) any operation waited behind.
	QueueHighWater sim.Duration
	// SlotHighWater is the peak slot occupancy.
	SlotHighWater int
}

// New builds a device on the engine. A Config with Slots <= 0 or
// SlotMiB <= 0 returns nil — the "board has no disk" case callers gate
// on.
func New(eng *sim.Engine, cfg Config) *Device {
	if cfg.Slots <= 0 || cfg.SlotMiB <= 0 {
		return nil
	}
	if cfg.SeekTime < 0 {
		cfg.SeekTime = 0
	}
	if cfg.BytesPerSec <= 0 {
		cfg.BytesPerSec = 40e6
	}
	d := &Device{cfg: cfg, eng: eng, free: make([]int, 0, cfg.Slots)}
	// Freelist is LIFO; push high ids first so allocation hands out
	// slot 0, 1, 2, ... on a fresh device.
	for i := cfg.Slots - 1; i >= 0; i-- {
		d.free = append(d.free, i)
	}
	return d
}

// SlotsTotal is the device capacity in slots.
func (d *Device) SlotsTotal() int { return d.cfg.Slots }

// SlotsUsed is the current slot occupancy.
func (d *Device) SlotsUsed() int { return d.cfg.Slots - len(d.free) }

// SlotsFor is how many slots a payload of miB occupies.
func (d *Device) SlotsFor(miB int) int {
	if miB <= 0 {
		return 1
	}
	return (miB + d.cfg.SlotMiB - 1) / d.cfg.SlotMiB
}

// Alloc claims the slots a payload of miB needs. ok is false when the
// device is full (the caller's disk-full fallback path); a failed
// allocation claims nothing.
func (d *Device) Alloc(miB int) (slots []int, ok bool) {
	n := d.SlotsFor(miB)
	if n > len(d.free) {
		return nil, false
	}
	slots = make([]int, n)
	for i := 0; i < n; i++ {
		slots[i] = d.free[len(d.free)-1]
		d.free = d.free[:len(d.free)-1]
	}
	if used := d.SlotsUsed(); used > d.SlotHighWater {
		d.SlotHighWater = used
	}
	return slots, true
}

// Free returns slots to the freelist.
func (d *Device) Free(slots []int) {
	if len(d.free)+len(slots) > d.cfg.Slots {
		panic(fmt.Sprintf("blockdev: double free (%d slots back into %d free of %d)",
			len(slots), len(d.free), d.cfg.Slots))
	}
	d.free = append(d.free, slots...)
}

// xferTime prices one transfer: seek plus payload over the sequential
// rate.
func (d *Device) xferTime(miB int) sim.Duration {
	bytes := float64(miB) * (1 << 20)
	return d.cfg.SeekTime + sim.Duration(bytes/d.cfg.BytesPerSec*float64(time.Second))
}

// enqueue schedules one transfer through the FIFO busy window and
// fires done at its completion instant.
func (d *Device) enqueue(miB int, done func()) {
	now := d.eng.Now()
	start := now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	if wait := start - now; wait > d.QueueHighWater {
		d.QueueHighWater = wait
	}
	d.busyUntil = start + d.xferTime(miB)
	at := d.busyUntil
	d.eng.At(at, func() {
		if done != nil {
			done()
		}
	})
}

// Write streams miB onto the device; done fires when the payload is
// durable. The caller must have Alloc'd the slots already.
func (d *Device) Write(miB int, done func()) {
	d.enqueue(miB, func() {
		d.Writes++
		d.BytesWritten += uint64(miB) << 20
		if done != nil {
			done()
		}
	})
}

// Read streams miB off the device; done fires when the payload is in
// memory. A read issued behind an in-flight write of the same object
// completes after it — FIFO ordering is the device's consistency
// model.
func (d *Device) Read(miB int, done func()) {
	d.enqueue(miB, func() {
		d.Reads++
		d.BytesRead += uint64(miB) << 20
		if done != nil {
			done()
		}
	})
}
