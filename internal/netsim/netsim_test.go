package netsim

import (
	"testing"
	"time"

	"jitsu/internal/sim"
)

func frame(dst, src MAC, payload string) []byte {
	f := make([]byte, 14+len(payload))
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	copy(f[14:], payload)
	return f
}

func TestMACString(t *testing.T) {
	m := MACFor(3)
	if m.String() != "00:16:3e:00:00:03" {
		t.Fatalf("MAC = %s", m)
	}
	if m.IsBroadcast() {
		t.Fatal("unicast misdetected")
	}
	if !Broadcast.IsBroadcast() {
		t.Fatal("broadcast not detected")
	}
	if !(MAC{0x01, 0, 0x5e, 0, 0, 1}).IsBroadcast() {
		t.Fatal("multicast not detected")
	}
}

func TestPointToPointDelivery(t *testing.T) {
	eng := sim.New(1)
	a := NewNIC(eng, "a", MACFor(1))
	b := NewNIC(eng, "b", MACFor(2))
	var got []byte
	var at sim.Duration
	b.SetHandler(func(f []byte) { got = append([]byte(nil), f...); at = eng.Now() })
	l := NewLink(eng, a, b, 200*time.Microsecond, 0)
	a.peer = &l.aEnd

	f := frame(b.Addr, a.Addr, "hello")
	if err := a.Send(f); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got == nil || string(got[14:]) != "hello" {
		t.Fatalf("payload = %q", got)
	}
	if at != 200*time.Microsecond {
		t.Fatalf("arrival at %v, want 200µs", at)
	}
	if a.TxCount != 1 || b.RxCount != 1 {
		t.Fatalf("counters tx=%d rx=%d", a.TxCount, b.RxCount)
	}
}

func TestLinkSerialisationDelay(t *testing.T) {
	// At 100Mb/s a 1250-byte frame takes 100µs to serialise.
	eng := sim.New(1)
	a := NewNIC(eng, "a", MACFor(1))
	b := NewNIC(eng, "b", MACFor(2))
	var arrivals []sim.Duration
	b.SetHandler(func(f []byte) { arrivals = append(arrivals, eng.Now()) })
	Attach(eng, a, b, 0, 100e6)
	payload := make([]byte, 1250-14)
	f := frame(b.Addr, a.Addr, string(payload))
	a.Send(f)
	a.Send(f) // queues behind the first
	eng.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != 100*time.Microsecond {
		t.Fatalf("first arrival %v, want 100µs", arrivals[0])
	}
	if arrivals[1] != 200*time.Microsecond {
		t.Fatalf("second arrival %v, want 200µs (queued)", arrivals[1])
	}
}

func TestFrameTooBig(t *testing.T) {
	eng := sim.New(1)
	a := NewNIC(eng, "a", MACFor(1))
	if err := a.Send(make([]byte, MaxFrame+1)); err != ErrFrameTooBig {
		t.Fatalf("err = %v", err)
	}
}

func TestNICDownDropsTraffic(t *testing.T) {
	eng := sim.New(1)
	a := NewNIC(eng, "a", MACFor(1))
	b := NewNIC(eng, "b", MACFor(2))
	got := 0
	b.SetHandler(func([]byte) { got++ })
	Attach(eng, a, b, 0, 0)
	b.Down = true
	a.Send(frame(b.Addr, a.Addr, "x"))
	eng.Run()
	if got != 0 {
		t.Fatal("down NIC received a frame")
	}
	b.Down = false
	a.Send(frame(b.Addr, a.Addr, "x"))
	eng.Run()
	if got != 1 {
		t.Fatal("NIC did not recover after Down cleared")
	}
}

func TestSendCopiesFrame(t *testing.T) {
	// Mutating the buffer after Send must not corrupt the in-flight frame.
	eng := sim.New(1)
	a := NewNIC(eng, "a", MACFor(1))
	b := NewNIC(eng, "b", MACFor(2))
	var got string
	b.SetHandler(func(f []byte) { got = string(f[14:]) })
	Attach(eng, a, b, time.Millisecond, 0)
	f := frame(b.Addr, a.Addr, "good")
	a.Send(f)
	copy(f[14:], "evil")
	eng.Run()
	if got != "good" {
		t.Fatalf("in-flight frame mutated: %q", got)
	}
}

// bridgedPair builds eng + bridge + n NICs attached via zero-latency links.
func bridgedPair(t *testing.T, n int) (*sim.Engine, *Bridge, []*NIC) {
	t.Helper()
	eng := sim.New(1)
	br := NewBridge(eng, "xenbr0", 10*time.Microsecond)
	nics := make([]*NIC, n)
	for i := range nics {
		nics[i] = NewNIC(eng, "nic", MACFor(i+1))
		br.ConnectNIC(nics[i], 0, 0)
	}
	return eng, br, nics
}

func TestBridgeLearningAndForwarding(t *testing.T) {
	eng, br, nics := bridgedPair(t, 3)
	a, b, c := nics[0], nics[1], nics[2]
	rx := map[string]int{}
	a.SetHandler(func([]byte) { rx["a"]++ })
	b.SetHandler(func([]byte) { rx["b"]++ })
	c.SetHandler(func([]byte) { rx["c"]++ })

	// First frame to an unknown MAC floods to everyone except sender.
	a.Send(frame(b.Addr, a.Addr, "1"))
	eng.Run()
	if rx["b"] != 1 || rx["c"] != 1 || rx["a"] != 0 {
		t.Fatalf("flood rx = %v", rx)
	}
	if br.Flooded != 1 {
		t.Fatalf("flooded = %d", br.Flooded)
	}
	// b replies; bridge has learned a, so this is pure unicast.
	b.Send(frame(a.Addr, b.Addr, "2"))
	eng.Run()
	if rx["a"] != 1 || rx["c"] != 1 {
		t.Fatalf("unicast rx = %v", rx)
	}
	if br.Forwarded != 1 {
		t.Fatalf("forwarded = %d", br.Forwarded)
	}
	// Now a→b is also learned.
	a.Send(frame(b.Addr, a.Addr, "3"))
	eng.Run()
	if rx["b"] != 2 || rx["c"] != 1 {
		t.Fatalf("learned rx = %v", rx)
	}
	if br.table[a.Addr] == nil || br.table[b.Addr] == nil {
		t.Fatal("bridge did not learn addresses")
	}
}

func TestBridgeBroadcast(t *testing.T) {
	eng, _, nics := bridgedPair(t, 4)
	got := 0
	for _, n := range nics[1:] {
		n.SetHandler(func([]byte) { got++ })
	}
	nics[0].Send(frame(Broadcast, nics[0].Addr, "arp who-has"))
	eng.Run()
	if got != 3 {
		t.Fatalf("broadcast reached %d ports, want 3", got)
	}
}

func TestBridgeRemovePort(t *testing.T) {
	eng, br, nics := bridgedPair(t, 2)
	got := 0
	nics[1].SetHandler(func([]byte) { got++ })
	// Learn nics[1].
	nics[1].Send(frame(Broadcast, nics[1].Addr, "hello"))
	eng.Run()
	// Remove every port that isn't port 0 — easiest via the learned table.
	if br.table[nics[1].Addr] == nil {
		t.Fatal("setup: MAC not learned")
	}
	// Find the port by sending after removal: remove all ports, re-add none.
	for _, p := range append([]*bridgePort(nil), br.ports...) {
		br.RemovePort(p)
	}
	nics[0].Send(frame(nics[1].Addr, nics[0].Addr, "post-remove"))
	eng.Run()
	if got != 0 {
		t.Fatal("frame delivered through removed port")
	}
	if br.table[nics[1].Addr] != nil {
		t.Fatal("table entry survived port removal")
	}
}

func TestBridgeShortFrameIgnored(t *testing.T) {
	eng, br, nics := bridgedPair(t, 2)
	got := 0
	nics[1].SetHandler(func([]byte) { got++ })
	nics[0].Send([]byte{1, 2, 3}) // shorter than an Ethernet header
	eng.Run()
	if got != 0 || br.Flooded != 0 {
		t.Fatal("runt frame was forwarded")
	}
}
