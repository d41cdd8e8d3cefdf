package netsim_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/cluster"
	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
	"jitsu/internal/wire"
	"jitsu/internal/xen"
)

// A frame is cut from a slab, so whoever keeps a frame — or a view of
// one, which is what TCP's OnData hands up — keeps its whole slab. Who
// may, and for how long: httpGet and httpServerConn keep the first
// segment of a message until the message is complete; the caller of a
// fetch keeps the response body for as long as it keeps the response;
// data parked on a connection nobody reads is a private copy and keeps
// nothing; wire copies into its own reassembly buffer and keeps nothing;
// a Host's decoders let go of a frame when it has been handled. These
// tests count it: every delivered frame gets a cleanup on its slab.

// slabWatch totals the bytes of the frames seen whose slab is still
// reachable.
type slabWatch struct {
	netsim.Splice
	seen int64
	live atomic.Int64 // cleanups run on their own goroutine
}

func newSlabWatch() *slabWatch {
	w := &slabWatch{}
	w.See = func(frame []byte) {
		n := int64(len(frame))
		w.seen += n
		w.live.Add(n)
		runtime.AddCleanup(&frame[0], func(n int64) { w.live.Add(-n) }, n)
	}
	return w
}

// settle collects until the live total stops falling, and checks it
// against the slabs the world may still hold: slabs is how many, and a
// world that pushed less than twenty times that through its fabrics
// would prove nothing.
func (w *slabWatch) settle(t *testing.T, slabs int64) {
	t.Helper()
	w.Check(t)
	for last := int64(-1); last != w.live.Load(); {
		last = w.live.Load()
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if seen, live := w.seen, w.live.Load(); seen < 20*slabs*netsim.SlabSize || live > slabs*netsim.SlabSize {
		t.Errorf("%d KiB of frames seen, %d KiB of them in slabs still live; want at most %d slabs", seen>>10, live>>10, slabs)
	}
}

// pair is two hosts on a bridge, and a third that hears their first ARP
// broadcast and then nothing: an idle stack must not sit on the slab
// its last frame came in.
func pair(seed int64) (*sim.Engine, *netstack.Host, *netstack.Host) {
	eng := sim.New(seed)
	br := netsim.NewBridge(eng, "xenbr0", 10*time.Microsecond)
	host := func(id int) *netstack.Host {
		nic := netsim.NewNIC(eng, "nic", netsim.MACFor(id))
		br.ConnectNIC(nic, 20*time.Microsecond, 0)
		return netstack.NewHost(eng, "host", nic, netstack.IPv4(10, 0, 0, byte(id)), netstack.MirageProfile())
	}
	host(3)
	return eng, host(1), host(2)
}

// TestParkedDataHoldsNoSlab: 1 000 accepted connections, each with a
// kilobyte nobody has read yet — the Synjitsu proxy through a boot —
// hold their bytes and not the hundred-odd slabs those arrived in.
func TestParkedDataHoldsNoSlab(t *testing.T) {
	eng, a, b := pair(1)
	w := newSlabWatch()
	w.Watch(a.NIC)
	var parked []*netstack.TCPConn
	b.ListenTCP(80, func(c *netstack.TCPConn) { parked = append(parked, c) })
	request := make([]byte, 1024)
	for i := 0; i < 1000; i++ {
		a.DialTCP(b.IP, 80, func(c *netstack.TCPConn, err error) {
			if err != nil {
				t.Fatal(err)
			}
			c.Send(request)
		})
		eng.RunFor(time.Millisecond)
	}
	w.settle(t, 1) // the slab the bridge is cutting from
	got := 0
	for _, c := range parked {
		c.OnData(func(p []byte) { got += len(p) })
	}
	if len(parked) != 1000 || got != 1000*len(request) {
		t.Fatalf("%d connections parked %d bytes", len(parked), got)
	}
}

// TestCompletedFetchesHoldNoSlab: 1 000 fetches of a 1 KiB page, each
// run to the end of its TIME_WAIT, leave nothing of the fabric's behind
// but the slab it is cutting from.
func TestCompletedFetchesHoldNoSlab(t *testing.T) {
	eng, a, b := pair(2)
	w := newSlabWatch()
	w.Watch(a.NIC)
	page := make([]byte, 1024)
	if _, err := b.ServeHTTP(80, func(*netstack.HTTPRequest) *netstack.HTTPResponse {
		return &netstack.HTTPResponse{Status: 200, Body: page}
	}); err != nil {
		t.Fatal(err)
	}
	fetched := 0
	for i := 0; i < 1000; i++ {
		a.HTTPGet(b.IP, 80, "/", time.Second, func(r *netstack.HTTPResponse, _ sim.Duration, err error) {
			if err != nil || len(r.Body) != len(page) {
				t.Fatalf("fetch %d: %v, %v", i, r, err)
			}
			fetched++
		})
		eng.Run()
	}
	if fetched != 1000 {
		t.Fatalf("%d fetches completed", fetched)
	}
	w.settle(t, 1)
}

// TestFloodBurstLeavesFewRecords: every guest on a 64-port bridge
// broadcasts at one instant, so 64 flood records — each with a 63-wide
// egress array — are in flight at once. Once they have fired the bridge
// keeps at most MaxSpareFloods of them, and those still serve: a lone
// broadcast after the burst allocates nothing.
func TestFloodBurstLeavesFewRecords(t *testing.T) {
	eng := sim.New(1)
	br := netsim.NewBridge(eng, "xenbr0", 10*time.Microsecond)
	nics := make([]*netsim.NIC, 64)
	heard := 0
	for i := range nics {
		nics[i] = netsim.NewNIC(eng, "nic", netsim.MACFor(i+1))
		nics[i].SetHandler(func([]byte) { heard++ })
		br.ConnectNIC(nics[i], 20*time.Microsecond, 0)
	}
	frame := make([]byte, 60)
	copy(frame, netsim.Broadcast[:])
	for _, nic := range nics {
		copy(frame[6:12], nic.Addr[:])
		if err := nic.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if br.Flooded != 64 || heard != 64*63 {
		t.Fatalf("%d floods, %d frames heard, want 64 and %d", br.Flooded, heard, 64*63)
	}
	if n := br.SpareFloods(); n == 0 || n > netsim.MaxSpareFloods {
		t.Fatalf("the bridge keeps %d flood records after the burst, want 1 to %d", n, netsim.MaxSpareFloods)
	}
	if n := testing.AllocsPerRun(100, func() { nics[0].Send(frame); eng.Run() }); n != 0 {
		t.Fatalf("a broadcast after the burst: %v allocs, want 0", n)
	}
}

// TestClosedWireSessionHoldsNoSlab: an operator session that read 500
// multi-segment stats answers and closed leaves each bridge the slab it
// is cutting from and nothing else.
func TestClosedWireSessionHoldsNoSlab(t *testing.T) {
	c := cluster.NewCluster(cluster.WithBoards(3), cluster.WithSeed(5))
	if _, err := c.ServeWire(cluster.WireConfig{
		Apps:      func(name string, _ xen.GuestKind) unikernel.App { return unikernel.NewStaticSiteApp(name) },
		Anonymous: api.ScopeAdmin,
	}); err != nil {
		t.Fatal(err)
	}
	w := newSlabWatch()
	for _, m := range c.Members() {
		w.Watch(m.Board.NS.NIC)
	}
	w.Watch(c.MgmtHost(0).NIC)
	cl, err := wire.DialSession(c.Eng(), c.AttachMgmtHost("console", 200), c.MgmtHost(0).IP, wire.DefaultPort, wire.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		cfg := site(i, 0)
		cfg.Image.App = nil
		if resp := cl.Register(api.RegisterRequest{Config: cfg}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	for i := 0; i < 500; i++ {
		if resp := cl.Stats(api.StatsRequest{}); resp.Err != nil || len(resp.Services) != 32 {
			t.Fatalf("stats %d: %d services, %v", i, len(resp.Services), resp.Err)
		}
	}
	cl.Close()
	c.StopMembership()
	c.Eng().RunFor(5 * time.Second)
	w.settle(t, int64(len(c.Members())+1))
}
