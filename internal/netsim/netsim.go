// Package netsim simulates the layer-2 fabric of one edge network: NICs,
// point-to-point links with latency and bandwidth, and the learning
// bridge (xenbr0) that dom0 runs. The Synjitsu proxy's promiscuous tap is
// modelled as a bridge mirror port (§3.3.1).
//
// Frames are opaque byte slices; internal/netstack gives them meaning.
// One ownership rule holds everywhere: a frame is copied once by the
// sending NIC (NIC.Send) into its fabric's slab (hop.go); from then on
// it is shared, immutable and never reused — receivers may keep it (and
// with it the slab it was cut from), nobody may write it. "Never
// reused" is why the slab is bump-allocated and left to the collector,
// not a free list. Links, bridges, capture taps, duplicating
// impairments and flooded broadcasts all hand out that same buffer.
// Code that injects a frame any other way (Port.Deliver directly) gives
// the buffer up under the same rule.
//
// Each hop a frame takes — across a link, through the bridge — is one
// engine event on a record pooled beside the slab, so a frame costs the
// fabric its bytes' share of a slab and nothing else.
//
// Hostile-network behaviour lives here too, strictly below the bridge:
// impairments (impair.go — seeded loss, extra latency and jitter,
// reordering, duplication, throttling, partitions) and packet capture
// (capture.go) decorate the Link between two ports, never the NICs or
// the protocol endpoints above them. Endpoints observe only the
// consequences — missing, delayed or duplicated frames — so the
// retry/backoff machinery upstream (ARP and TCP in netstack, the DNS
// client, gossip's indirect probes, migration's chunk retransmits) is
// exercised by exactly the fault model the experiments script, and a
// seeded hostile run stays as bit-reproducible as a perfect one.
package netsim

import (
	"errors"
	"fmt"
	"time"

	"jitsu/internal/sim"
)

// MTU is the Ethernet payload limit enforced by links.
const MTU = 1500

// MaxFrame is MTU plus the Ethernet header.
const MaxFrame = MTU + 14

// ErrFrameTooBig is returned when a frame exceeds MaxFrame.
var ErrFrameTooBig = errors.New("netsim: frame exceeds MTU")

// MAC is an Ethernet address, comparable and usable as a map key.
type MAC [6]byte

// Broadcast is the all-ones Ethernet address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String renders the usual colon-hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is broadcast or multicast.
func (m MAC) IsBroadcast() bool { return m == Broadcast || m[0]&1 == 1 }

// MACFor derives a stable locally administered unicast MAC from an
// integer id, in the Xen OUI (00:16:3e) like real vifs.
func MACFor(id int) MAC {
	return MAC{0x00, 0x16, 0x3e, byte(id >> 16), byte(id >> 8), byte(id)}
}

// Handler consumes a received frame: the sending NIC's copy, shared,
// immutable and never reused — a handler may keep it (and with it the
// slab it was cut from), nobody may write it.
type Handler func(frame []byte)

// Port is anything a link can deliver frames to.
type Port interface {
	// Deliver hands a frame to the port at the current virtual instant.
	Deliver(frame []byte)
}

// NIC is a network interface: it transmits onto whatever it is attached
// to and delivers received frames to its handler.
type NIC struct {
	Name    string
	Addr    MAC
	eng     *sim.Engine
	handler Handler
	peer    *linkEnd // where transmitted frames go
	TxCount uint64
	RxCount uint64
	TxBytes uint64
	RxBytes uint64
	// Drops counts frames this NIC discarded instead of delivering:
	// transmits while Down or unplugged, receives while Down or with no
	// handler installed. Tx/Rx counters only ever reflect frames that
	// actually moved.
	Drops uint64
	// Down drops all traffic (guest not booted / unplugged).
	Down bool
}

// NewNIC creates an unattached NIC.
func NewNIC(eng *sim.Engine, name string, addr MAC) *NIC {
	return &NIC{Name: name, Addr: addr, eng: eng}
}

// SetHandler installs the receive callback.
func (n *NIC) SetHandler(h Handler) { n.handler = h }

// Deliver implements Port: frames arriving from the fabric.
func (n *NIC) Deliver(frame []byte) {
	if n.Down || n.handler == nil {
		n.Drops++
		return
	}
	n.RxCount++
	n.RxBytes += uint64(len(frame))
	n.handler(frame)
}

// Send transmits a frame toward the attached link. This is the one
// place a frame is copied: the caller keeps its buffer (and may
// overwrite it at once — netstack renders every frame into one scratch
// buffer), and the copy, cut from the fabric's slab, is what every
// port, mirror, tap and receiver downstream shares — immutable and
// never reused, so receivers may keep it and nobody may write it.
func (n *NIC) Send(frame []byte) error {
	return n.SendBulk(frame, len(frame))
}

// SendBulk transmits a frame that stands in for wireBytes bytes on the
// wire: the frame itself (a chunk header, typically) is what the far
// end receives, but the link charges its serialisation — and any
// throttle in the fault model — for the full wireBytes. This is how
// the bulk movers put multi-MiB checkpoint copies onto the management
// fabric without exploding a copy into thousands of MTU-sized events:
// one header datagram per chunk occupies the shared link for exactly
// as long as the chunk's bytes would, so gossip probes and delegated
// resolutions queue behind it just as they would behind the real
// burst. wireBytes below the frame length is clamped up.
func (n *NIC) SendBulk(frame []byte, wireBytes int) error {
	if len(frame) > MaxFrame {
		return ErrFrameTooBig
	}
	if wireBytes < len(frame) {
		wireBytes = len(frame)
	}
	if n.Down || n.peer == nil {
		n.Drops++
		return nil // cable unplugged: dropped, like real life — but counted
	}
	n.TxCount++
	n.TxBytes += uint64(wireBytes)
	n.peer.deliver(n.peer.link.fab.copyFrame(frame), wireBytes)
	return nil
}

// Link is a full-duplex point-to-point cable with propagation latency
// and serialisation bandwidth. It connects two Ports. Hostile-network
// behaviour (loss, jitter, reorder, duplication, partition — see
// impair.go) and packet capture (capture.go) both live here, in the
// link between the NICs, never in the endpoints.
type Link struct {
	eng     *sim.Engine
	Latency sim.Duration // one-way propagation
	// BitsPerSec is the serialisation rate; 0 means infinite.
	BitsPerSec float64
	// Stats accumulates what the fault model did (zero on clean links).
	Stats LinkStats

	aEnd, bEnd linkEnd // NIC.peer and bridgePort.dst point in here
	fab        *fabric // the bridge's when made by ConnectNIC, else its own
}

type linkEnd struct {
	link *Link
	dst  Port
	busy sim.Duration // virtual instant the wire in this direction frees up
	// fault, when non-nil, is this direction's impairment state.
	fault *impairState
	// cap, when non-nil, records frames this direction delivers.
	cap    *Capture
	capDir string
}

// Deliver implements Port: a frame entering this end of the cable.
func (e *linkEnd) Deliver(frame []byte) { e.deliver(frame, len(frame)) }

// deliver runs one frame through serialisation, the fault model and
// delivery scheduling. wireBytes is the on-wire size the direction is
// charged for — len(frame) on the normal path, larger for bulk stand-in
// frames (NIC.SendBulk).
func (e *linkEnd) deliver(frame []byte, wireBytes int) {
	l := e.link
	delay := l.Latency
	if l.BitsPerSec > 0 {
		ser := sim.Duration(float64(wireBytes*8) / l.BitsPerSec * float64(time.Second))
		now := l.eng.Now()
		if e.busy < now {
			e.busy = now
		}
		e.busy += ser
		delay += e.busy - now
	}
	if e.fault != nil {
		extra, ok := e.deliverImpaired(frame, wireBytes, delay)
		if !ok {
			return
		}
		delay += extra
	}
	e.scheduleDelivery(frame, delay)
}

// scheduleDelivery books the frame's arrival at the far port, running
// it through the capture tap (if any) at the delivery instant.
func (e *linkEnd) scheduleDelivery(frame []byte, delay sim.Duration) {
	l := e.link
	l.Stats.Delivered++
	l.fab.book(l.eng, delay, e.dst, frame, e.cap, e.capDir)
}

// NewLink wires a and b together with the given characteristics.
// Typical values: local edge network — 180µs latency, 100Mb/s
// (Cubieboard2) or 1Gb/s (Cubietruck); intra-host virtual link — 20µs,
// effectively infinite bandwidth.
func NewLink(eng *sim.Engine, a, b Port, latency sim.Duration, bitsPerSec float64) *Link {
	l := &Link{eng: eng, Latency: latency, BitsPerSec: bitsPerSec, fab: new(fabric)}
	l.aEnd = linkEnd{link: l, dst: b}
	l.bEnd = linkEnd{link: l, dst: a}
	return l
}

// Attach wires a NIC to one end of a new link toward dst and returns the
// link. Convenience for the common NIC—bridge case.
func Attach(eng *sim.Engine, nic *NIC, dst Port, latency sim.Duration, bitsPerSec float64) *Link {
	l := NewLink(eng, nic, dst, latency, bitsPerSec)
	nic.peer = &l.aEnd
	return l
}

// Link returns the cable this NIC transmits into (nil when unplugged).
// For NICs wired by Attach or Bridge.ConnectNIC the NIC sits at the A
// end: ImpairAtoB/PartitionAtoB affect its transmit direction,
// ImpairBtoA/PartitionBtoA its receive direction.
func (n *NIC) Link() *Link {
	if n.peer == nil {
		return nil
	}
	return n.peer.link
}
