package netsim_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/blockdev"
	"jitsu/internal/cluster"
	"jitsu/internal/core"
	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
	"jitsu/internal/wire"
	"jitsu/internal/xen"
)

// Past the sending NIC's copy a frame is shared by every receiver, tap
// and flooded port, and since TCP hands the application a view of it,
// by every consumer above the stack too. These tests run whole worlds
// with a keeper spliced in front of every NIC and hold every frame ever
// delivered to the copy taken when it arrived.

// keeper keeps each delivered frame beside a private copy.
type keeper struct {
	netsim.Splice
	kept, copies [][]byte
}

func newKeeper() *keeper {
	k := &keeper{}
	k.See = func(frame []byte) {
		k.kept = append(k.kept, frame)
		k.copies = append(k.copies, bytes.Clone(frame))
	}
	return k
}

// check fails t for every kept frame that no longer equals its copy,
// and unless at least want deliveries were held.
func (k *keeper) check(t *testing.T, want int) {
	t.Helper()
	k.Check(t)
	for i, f := range k.kept {
		if !bytes.Equal(f, k.copies[i]) {
			t.Errorf("frame %d of %d was written after delivery:\n now %x\n was %x", i, len(k.kept), f, k.copies[i])
		}
	}
	if len(k.kept) < want {
		t.Errorf("the keeper held %d frames, want at least %d", len(k.kept), want)
	}
}

func site(i int, idle sim.Duration) core.ServiceConfig {
	label := fmt.Sprintf("svc%02d", i)
	return core.ServiceConfig{
		Name: label + ".family.name", IP: netstack.IPv4(10, 0, 0, byte(20+i)), Port: 80,
		Image:       unikernel.UnikernelImage(label, unikernel.NewStaticSiteApp(label)),
		IdleTimeout: idle,
	}
}

// TestNobodyWritesAFrameOnABoard serves 200 fetches on one board —
// cold starts whose first connection Synjitsu accepts, parks and hands
// over, warm ones in between, reaps behind them — plus a request whose
// head arrives in two segments, the one consumer that appends to what
// OnData gave it.
func TestNobodyWritesAFrameOnABoard(t *testing.T) {
	board := core.New(core.WithSeed(7))
	const services = 4
	for i := 0; i < services; i++ {
		board.Jitsu.Register(site(i, 2*time.Second))
	}
	client := board.AddClient("laptop", netstack.IPv4(10, 0, 0, 9))
	k := newKeeper()
	k.Watch(client.NIC)
	// run steps the engine for d, looking for new vifs after every event.
	run := func(d sim.Duration) {
		due := false
		board.Eng.After(d, func() { due = true })
		for !due && board.Eng.Step() {
			k.Refresh()
		}
	}
	fetched := 0
	fetch := func(i int) {
		name := site(i%services, 0).Name
		board.FetchViaDNS(client, name, "/", 10*time.Second, func(r *netstack.HTTPResponse, _ sim.Duration, err error) {
			if err != nil || r.Status != 200 || !bytes.Contains(r.Body, []byte("svc")) {
				t.Errorf("fetch %d of %s: %v, %v", i, name, r, err)
			}
			fetched++
		})
	}
	for i := 0; i < 200; i++ {
		fetch(i)
		// Every eighth gap outlasts the idle timeout: the next round of
		// fetches is cold again.
		if i%8 == 7 {
			run(4 * time.Second)
		} else {
			run(300 * time.Millisecond)
		}
	}
	// The split head, to a guest the fetch before it has brought up.
	fetch(0)
	run(500 * time.Millisecond)
	var answer []byte
	client.DialTCP(site(0, 0).IP, 80, func(c *netstack.TCPConn, err error) {
		if err != nil {
			t.Fatal(err)
		}
		c.OnData(func(b []byte) { answer = append(answer, b...) })
		c.Send([]byte("GET / HT"))
		board.Eng.After(5*time.Millisecond, func() { c.Send([]byte("TP/1.0\r\nHost: split\r\n\r\n")) })
	})
	run(time.Minute)
	if !bytes.HasPrefix(answer, []byte("HTTP/1.0 200")) {
		t.Errorf("split request answered %q", answer)
	}
	var launches, handoffs uint64
	for i := 0; i < services; i++ {
		svc, _ := board.Jitsu.Service(site(i, 0).Name)
		launches += svc.Launches
		handoffs += svc.Handoffs
	}
	if fetched != 201 || launches < 50 || handoffs < 50 || launches > 150 {
		t.Fatalf("%d fetches, %d launches, %d Synjitsu handoffs: want 201 fetches, cold and warm", fetched, launches, handoffs)
	}
	k.check(t, 2000)
}

// TestNobodyWritesAFrameOnTheWire runs three scoped operator sessions
// against a 3-board cluster for 24 rounds of the operator_wire verb mix:
// multi-segment stats answers reassembled by wire.Client, lifecycle
// verbs that boot, checkpoint and restore guests underneath.
func TestNobodyWritesAFrameOnTheWire(t *testing.T) {
	c := cluster.NewCluster(cluster.WithBoards(3), cluster.WithSeed(11),
		cluster.WithBoardOptions(core.WithDisk(blockdev.DefaultConfig())))
	_, err := c.ServeWire(cluster.WireConfig{
		Apps:    func(name string, _ xen.GuestKind) unikernel.App { return unikernel.NewStaticSiteApp(name) },
		Keyring: map[string]api.Scope{"admin": api.ScopeAdmin, "ops": api.ScopeOperator, "ro": api.ScopeReadOnly},
	})
	if err != nil {
		t.Fatal(err)
	}
	k := newKeeper()
	for _, m := range c.Members() {
		k.Watch(m.Board.NS.NIC)
	}
	k.Watch(c.MgmtHost(0).NIC)
	dial := func(role string, octet byte) *wire.Client {
		cl, err := wire.DialSession(c.Eng(), c.AttachMgmtHost(role, octet), c.MgmtHost(0).IP, wire.DefaultPort,
			wire.SessionConfig{Token: role})
		if err != nil {
			t.Fatalf("dial %s: %v", role, err)
		}
		return cl
	}
	admin, ops, viewer := dial("admin", 200), dial("ops", 201), dial("ro", 202)
	const services = 16
	var names []string
	for i := 0; i < services; i++ {
		cfg := site(i, 0)
		cfg.Name = fmt.Sprintf("svc%02d.%s", i, c.Cfg.Board.Zone)
		cfg.Image.App = nil // apps do not cross the wire
		if resp := admin.Register(api.RegisterRequest{Config: cfg}); resp.Err != nil {
			t.Fatalf("register %s: %v", cfg.Name, resp.Err)
		}
		names = append(names, cfg.Name)
	}
	events := 0
	if w := viewer.WatchStats(api.WatchStatsRequest{Every: 250 * time.Millisecond,
		OnStats: func(api.StatsResponse) bool { events++; return true }}); w.Err != nil {
		t.Fatal(w.Err)
	}
	ok := func(verb string, err *api.Error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", verb, err)
		}
	}
	// The smallest stats answer must still span several TCP segments, so
	// that every one of them is reassembled from more than one frame.
	smallest := wire.MaxFrame
	stats := func() {
		t.Helper()
		resp := viewer.Stats(api.StatsRequest{})
		ok("stats", resp.Err)
		if len(resp.Services) != services {
			t.Fatalf("stats lists %d services, want %d", len(resp.Services), services)
		}
		frame, err := wire.Append(nil, wire.Version, wire.TStatsResp, 1, resp)
		if err != nil {
			t.Fatal(err)
		}
		smallest = min(smallest, len(frame))
	}
	const settle = 400 * time.Millisecond
	for round := 0; round < 24; round++ {
		name := names[(round*7)%services]
		ok("activate", admin.Activate(api.ActivateRequest{Name: name}).Err)
		stats()
		c.Eng().RunFor(settle)
		ok("demote", ops.Demote(api.DemoteRequest{Name: name}).Err)
		stats()
		c.Eng().RunFor(settle)
		ok("promote", ops.Promote(api.PromoteRequest{Name: name}).Err)
		c.Eng().RunFor(settle)
		ok("stop", ops.Stop(api.StopRequest{Name: name}).Err)
		stats()
	}
	if err := viewer.Migrate(api.MigrateRequest{Name: names[0]}).Err; err == nil || err.Code != api.CodeUnauthorized {
		t.Fatalf("read-only migrate answered %v", err)
	}
	for _, cl := range []*wire.Client{admin, ops, viewer} {
		cl.Close()
	}
	c.StopMembership()
	c.Eng().RunFor(5 * time.Second)
	if events == 0 {
		t.Fatal("the stats stream delivered no event")
	}
	if smallest <= 2*netstack.DefaultMSS {
		t.Fatalf("the smallest stats answer is %d bytes: it fits in %d segments", smallest, (smallest+netstack.DefaultMSS-1)/netstack.DefaultMSS)
	}
	k.check(t, 2000)
}
