package netsim

import (
	"jitsu/internal/sim"
)

// Bridge is a learning Ethernet bridge, the xenbr0 every Xen host runs.
// Guests' vifs and the physical NIC all attach as ports; the Synjitsu
// proxy attaches as a mirror that sees every forwarded frame.
type Bridge struct {
	Name string
	eng  *sim.Engine
	// ForwardDelay models the bridge's per-frame forwarding cost.
	ForwardDelay sim.Duration

	ports []*bridgePort
	table map[MAC]*bridgePort
	fab   fabric // shared with every link ConnectNIC makes

	Forwarded uint64
	Flooded   uint64
}

type bridgePort struct {
	bridge *Bridge
	dst    Port
	id     int
}

// Deliver implements Port: a frame entering the bridge via this port.
func (p *bridgePort) Deliver(frame []byte) {
	p.bridge.input(p, frame)
}

// NewBridge creates an empty bridge.
func NewBridge(eng *sim.Engine, name string, forwardDelay sim.Duration) *Bridge {
	return &Bridge{Name: name, eng: eng, ForwardDelay: forwardDelay, table: make(map[MAC]*bridgePort)}
}

// RemovePort detaches a port previously returned by ConnectNIC. Learned
// table entries pointing at it are flushed.
func (b *Bridge) RemovePort(port Port) {
	p, ok := port.(*bridgePort)
	if !ok {
		return
	}
	for i, x := range b.ports {
		if x == p {
			b.ports = append(b.ports[:i], b.ports[i+1:]...)
			break
		}
	}
	for mac, owner := range b.table {
		if owner == p {
			delete(b.table, mac)
		}
	}
}

// input learns the source, then forwards (known unicast) or floods.
func (b *Bridge) input(in *bridgePort, frame []byte) {
	if len(frame) < 14 {
		return
	}
	var dst, src MAC
	copy(dst[:], frame[0:6])
	copy(src[:], frame[6:12])
	if !src.IsBroadcast() {
		b.table[src] = in
	}
	if !dst.IsBroadcast() {
		if out, ok := b.table[dst]; ok {
			if out != in {
				b.Forwarded++
				b.fab.book(b.eng, b.ForwardDelay, out.dst, frame, nil, "")
			}
			return
		}
	}
	// Flood to every port except ingress: every egress shares the frame.
	b.Flooded++
	for _, p := range b.ports {
		if p != in {
			b.fab.book(b.eng, b.ForwardDelay, p.dst, frame, nil, "")
		}
	}
}

// ConnectNIC wires a NIC to the bridge through a new link and returns
// the bridge-side Port (pass it to RemovePort to unplug). This is the
// plumbing the vif hotplug step performs.
func (b *Bridge) ConnectNIC(nic *NIC, latency sim.Duration, bitsPerSec float64) Port {
	l := &Link{eng: b.eng, Latency: latency, BitsPerSec: bitsPerSec, fab: &b.fab}
	bport := &bridgePort{bridge: b, id: len(b.ports)}
	b.ports = append(b.ports, bport)
	l.aEnd = linkEnd{link: l, dst: bport} // NIC -> bridge
	l.bEnd = linkEnd{link: l, dst: nic}   // bridge -> NIC
	bport.dst = &l.bEnd
	nic.peer = &l.aEnd
	return bport
}
