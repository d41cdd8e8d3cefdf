package netsim

import "testing"

// SlabSize lets the external tests state retention in slabs.
const SlabSize = slabSize

// MaxSpareFloods is how many flood records a fabric may keep.
const MaxSpareFloods = maxSpareFloods

// SpareFloods reports how many flood records b's fabric keeps.
func (b *Bridge) SpareFloods() int { return len(b.fab.floods) }

// Splice is the test-side interposition the external tests in this
// directory run whole boards and clusters behind: See is shown every
// frame delivered to a NIC of a watched bridge, before the NIC. There
// is no production hook behind it — it swaps the port a link delivers to.
type Splice struct {
	See     func(frame []byte)
	bridges []*Bridge
	seen    map[*NIC]uint64
}

// splicedPort stands in front of one NIC on its link.
type splicedPort struct {
	s   *Splice
	nic *NIC
}

func (p *splicedPort) Deliver(frame []byte) {
	p.s.Refresh() // a vif plugged since the last frame
	p.s.See(frame)
	p.s.seen[p.nic]++
	p.nic.Deliver(frame)
}

// Watch adds the bridge nic is plugged into.
func (s *Splice) Watch(nic *NIC) {
	s.bridges = append(s.bridges, nic.peer.dst.(*bridgePort).bridge)
	s.Refresh()
}

// Refresh splices every NIC on a watched bridge that is not yet. It
// runs on every frame seen, and callers that step the engine themselves
// call it after each event, so a vif is covered before the first frame
// can be booked towards it.
func (s *Splice) Refresh() {
	if s.seen == nil {
		s.seen = make(map[*NIC]uint64)
	}
	for _, b := range s.bridges {
		for _, p := range b.ports {
			end := p.dst.(*linkEnd)
			if nic, ok := end.dst.(*NIC); ok {
				end.dst = &splicedPort{s: s, nic: nic}
				s.seen[nic] += nic.RxCount // what it received earlier is not the splice's to answer for
			}
		}
	}
}

// Check fails t for a NIC that received frames See was never shown.
func (s *Splice) Check(t *testing.T) {
	t.Helper()
	for nic, n := range s.seen {
		if nic.RxCount > n {
			t.Errorf("%s received %d frames, %d passed the splice", nic.Name, nic.RxCount, n)
		}
	}
}
