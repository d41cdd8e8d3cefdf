package netstack

import (
	"testing"
	"time"

	"jitsu/internal/sim"
)

func TestARPRetransmitRecoversLostBroadcast(t *testing.T) {
	// The client's uplink is cut while the first ARP request goes out;
	// the retransmitted request after the heal must resolve the address
	// and flush the queued datagram — without it the queue blackholes.
	eng, a, b, _ := twoHosts(11)
	link := a.NIC.Link()
	link.PartitionAtoB()
	eng.At(500*time.Millisecond, func() { link.Heal() })

	got := 0
	b.BindUDP(5000, func(src IP, sport uint16, payload []byte) { got++ })
	a.SendUDP(b.IP, 6000, 5000, []byte("queued"))
	eng.Run()
	if got != 1 {
		t.Fatalf("datagram not delivered after ARP retransmit (got %d)", got)
	}
	if a.ARPRetries == 0 {
		t.Fatal("ARPRetries not counted")
	}
	if _, ok := a.arpCache[b.IP]; !ok {
		t.Fatal("address never resolved")
	}
}

func TestARPGivesUpAfterBoundedTries(t *testing.T) {
	// A permanently mute uplink: the resolver must stop after
	// arpRetransmit's retries and drop the queue, not retry forever.
	eng, a, b, _ := twoHosts(12)
	a.NIC.Link().PartitionAtoB()

	a.SendUDP(b.IP, 6000, 5000, []byte("doomed"))
	eng.Run()
	if want := uint64(arpRetransmit.Retries); a.ARPRetries != want {
		t.Fatalf("ARPRetries = %d, want %d", a.ARPRetries, want)
	}
	if len(a.arpPending[b.IP]) != 0 {
		t.Fatal("pending queue not dropped after final try")
	}
	// The whole resolution episode is bounded: the wait after every
	// request, the last one included, and a second of slack.
	var bound sim.Duration
	for k := 0; k <= arpRetransmit.Retries; k++ {
		wait, _ := arpRetransmit.Next(k, nil)
		bound += wait
	}
	if eng.Now() > bound+time.Second {
		t.Fatalf("resolution dragged to %v", eng.Now())
	}
}
