package wire_test

import (
	"errors"
	"slices"
	"testing"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/blockdev"
	"jitsu/internal/cluster"
	"jitsu/internal/core"
	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/unikernel"
	"jitsu/internal/wire"
	"jitsu/internal/xen"
)

const (
	wirePort = wire.DefaultPort

	tokAdmin = "jitsu-admin"
	tokOps   = "jitsu-ops"
	tokRO    = "jitsu-ro"
)

var serverIP = netstack.IPv4(10, 255, 0, 10)

func testKeyring() map[string]api.Scope {
	return map[string]api.Scope{
		tokAdmin: api.ScopeAdmin,
		tokOps:   api.ScopeOperator,
		tokRO:    api.ScopeReadOnly,
	}
}

func staticApps(name string, _ xen.GuestKind) unikernel.App {
	return unikernel.NewStaticSiteApp(name)
}

// wiredCluster builds a disk-tiered cluster serving its control plane
// over the wire with the test keyring; anonymous sessions are refused.
func wiredCluster(t *testing.T, seed int64) (*cluster.Cluster, *wire.Server) {
	t.Helper()
	c := cluster.NewCluster(
		cluster.WithBoards(3),
		cluster.WithSeed(seed),
		cluster.WithBoardOptions(core.WithDisk(blockdev.DefaultConfig())),
	)
	srv, err := c.ServeWire(cluster.WireConfig{
		Apps:    staticApps,
		Keyring: testKeyring(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, srv
}

// dialOp attaches a fresh operator console to the management bridge
// and opens a session with the given token.
func dialOp(t *testing.T, c *cluster.Cluster, name string, octet byte, token string) *wire.Client {
	t.Helper()
	console := c.AttachMgmtHost(name, octet)
	cl, err := wire.DialSession(c.Eng(), console, serverIP, wirePort,
		wire.SessionConfig{Token: token})
	if err != nil {
		t.Fatalf("dial %s: %v", name, err)
	}
	return cl
}

// TestRemoteSessionDrivesCluster walks a full admin session over the
// wire: register, activate (remote OnReady), stats, demote, promote,
// migrate (remote OnDone), stop — every response carried as frames
// across the simulated management network.
func TestRemoteSessionDrivesCluster(t *testing.T) {
	c, srv := wiredCluster(t, 1)
	cl := dialOp(t, c, "console", 200, tokAdmin)
	if cl.Scope() != api.ScopeAdmin {
		t.Fatalf("granted scope %s, want admin", cl.Scope())
	}
	zone := c.Cfg.Board.Zone
	name := "alice." + zone

	reg := cl.Register(api.RegisterRequest{Config: core.ServiceConfig{
		Name: name, IP: netstack.IPv4(10, 0, 0, 20), Port: 80,
		Image: unikernel.UnikernelImage("alice", nil),
	}})
	if reg.Err != nil || reg.Name != name {
		t.Fatalf("register: %v %q", reg.Err, reg.Name)
	}

	// Registering the same name again must carry the typed conflict
	// back across the wire.
	if dup := cl.Register(api.RegisterRequest{Config: core.ServiceConfig{
		Name: name, IP: netstack.IPv4(10, 0, 0, 20), Port: 80,
		Image: unikernel.UnikernelImage("alice", nil),
	}}); dup.Err == nil || dup.Err.Code != api.CodeConflict {
		t.Fatalf("duplicate register: %v, want CodeConflict", dup.Err)
	}
	if miss := cl.Activate(api.ActivateRequest{Name: "ghost." + zone}); miss.Err == nil || miss.Err.Code != api.CodeNotFound {
		t.Fatalf("activate unknown: %v, want CodeNotFound", miss.Err)
	}

	readyErr := error(api.Errf("x", api.CodeUnavailable, "never fired"))
	readyFired := false
	act := cl.Activate(api.ActivateRequest{Name: name, OnReady: func(err error) {
		readyFired, readyErr = true, err
	}})
	if act.Err != nil {
		t.Fatalf("activate: %v", act.Err)
	}
	c.Eng().RunFor(5 * time.Second)
	if !readyFired || readyErr != nil {
		t.Fatalf("remote OnReady: fired=%v err=%v", readyFired, readyErr)
	}

	stats := cl.Stats(api.StatsRequest{})
	if stats.Err != nil || len(stats.Services) != 1 || stats.Services[0].Name != name {
		t.Fatalf("stats: %v %+v", stats.Err, stats.Services)
	}
	if stats.Services[0].Launches != 1 || len(stats.Registries) == 0 {
		t.Fatalf("stats content: launches=%d registries=%d",
			stats.Services[0].Launches, len(stats.Registries))
	}

	dem := cl.Demote(api.DemoteRequest{Name: name, Board: api.OnBoard(act.Board)})
	if dem.Err != nil || dem.Demoted != 1 {
		t.Fatalf("demote: %v demoted=%d", dem.Err, dem.Demoted)
	}
	c.Eng().RunFor(2 * time.Second)

	promoted := false
	pro := cl.Promote(api.PromoteRequest{Name: name, OnReady: func(err error) {
		if err == nil {
			promoted = true
		}
	}})
	if pro.Err != nil || pro.Board != act.Board {
		t.Fatalf("promote: %v board=%d want %d", pro.Err, pro.Board, act.Board)
	}
	c.Eng().RunFor(5 * time.Second)
	if !promoted {
		t.Fatal("remote promote OnReady never fired")
	}

	migrated, migrateOK := false, false
	mig := cl.Migrate(api.MigrateRequest{Name: name, From: api.OnBoard(act.Board),
		OnDone: func(ok bool) { migrated, migrateOK = true, ok }})
	if mig.Err != nil || !mig.Started {
		t.Fatalf("migrate: %v started=%v", mig.Err, mig.Started)
	}
	c.Eng().RunFor(20 * time.Second)
	if !migrated || !migrateOK {
		t.Fatalf("remote OnDone: fired=%v ok=%v", migrated, migrateOK)
	}
	if c.Migrations != 1 || c.Chunks == 0 {
		t.Fatalf("migrations=%d chunks=%d — the CC-paced mover should have run", c.Migrations, c.Chunks)
	}

	stop := cl.Stop(api.StopRequest{Name: name})
	if stop.Err != nil || stop.Stopped == 0 {
		t.Fatalf("stop: %v stopped=%d", stop.Err, stop.Stopped)
	}
	if srv.Conns != 1 || srv.ProtoErrs != 0 || srv.Unauthorized != 0 {
		t.Fatalf("server saw conns=%d protoerrs=%d unauthorized=%d",
			srv.Conns, srv.ProtoErrs, srv.Unauthorized)
	}
}

// TestRemoteWatchStatsStream subscribes over the wire, collects three
// snapshots at the deployment's virtual-time cadence, then ends the
// stream from the OnStats return value — the client must cancel
// upstream and no further snapshots may arrive.
func TestRemoteWatchStatsStream(t *testing.T) {
	c, _ := wiredCluster(t, 1)
	cl := dialOp(t, c, "console", 200, tokRO)

	if bad := cl.WatchStats(api.WatchStatsRequest{Every: -time.Second,
		OnStats: func(api.StatsResponse) bool { return true }}); bad.Err == nil ||
		bad.Err.Code != api.CodeBadRequest {
		t.Fatalf("negative period: %v, want CodeBadRequest", bad.Err)
	}

	snaps := 0
	resp := cl.WatchStats(api.WatchStatsRequest{Every: time.Second,
		OnStats: func(s api.StatsResponse) bool {
			if s.Err != nil {
				t.Fatalf("stream snapshot error: %v", s.Err)
			}
			snaps++
			return snaps < 3
		}})
	if resp.Err != nil {
		t.Fatalf("watch-stats: %v", resp.Err)
	}
	c.Eng().RunFor(10 * time.Second)
	if snaps != 3 {
		t.Fatalf("snapshots = %d, want exactly 3 (stream must stop)", snaps)
	}
}

// TestFailedVerbsDropCallbackRegistrations: a verb that comes back
// with an application error will never be followed by its Ready/Done
// event, so the client must drop the registration instead of holding
// it for the connection's lifetime.
func TestFailedVerbsDropCallbackRegistrations(t *testing.T) {
	c, _ := wiredCluster(t, 1)
	cl := dialOp(t, c, "console", 200, tokAdmin)
	zone := c.Cfg.Board.Zone
	ghost := "ghost." + zone

	fired := false
	if resp := cl.Activate(api.ActivateRequest{Name: ghost,
		OnReady: func(error) { fired = true }}); resp.Err == nil {
		t.Fatal("activate unknown succeeded")
	}
	if resp := cl.Promote(api.PromoteRequest{Name: ghost,
		OnReady: func(error) { fired = true }}); resp.Err == nil {
		t.Fatal("promote unknown succeeded")
	}
	if resp := cl.Migrate(api.MigrateRequest{Name: ghost,
		OnDone: func(bool) { fired = true }}); resp.Err == nil {
		t.Fatal("migrate unknown succeeded")
	}
	c.Eng().RunFor(2 * time.Second)
	if fired {
		t.Fatal("a failed verb fired its callback")
	}
	if n := cl.Pending(); n != 0 {
		t.Fatalf("pending callback registrations = %d, want 0", n)
	}
}

// TestScopedVerbRefusals: a session's out-of-scope verbs come back
// CodeUnauthorized through the verb's own response — and the session
// keeps working afterwards. The ladder is checked at every rung.
func TestScopedVerbRefusals(t *testing.T) {
	c, srv := wiredCluster(t, 1)
	zone := c.Cfg.Board.Zone
	name := "alice." + zone

	admin := dialOp(t, c, "admin", 200, tokAdmin)
	ops := dialOp(t, c, "ops", 201, tokOps)
	ro := dialOp(t, c, "viewer", 202, tokRO)
	if ops.Scope() != api.ScopeOperator || ro.Scope() != api.ScopeReadOnly {
		t.Fatalf("granted scopes: ops=%s ro=%s", ops.Scope(), ro.Scope())
	}

	if reg := admin.Register(api.RegisterRequest{Config: core.ServiceConfig{
		Name: name, IP: netstack.IPv4(10, 0, 0, 20), Port: 80,
		Image: unikernel.UnikernelImage("alice", nil),
	}}); reg.Err != nil {
		t.Fatalf("admin register: %v", reg.Err)
	}

	// read-only: observation allowed, lifecycle and reshaping refused.
	if s := ro.Stats(api.StatsRequest{}); s.Err != nil {
		t.Fatalf("ro stats: %v", s.Err)
	}
	if a := ro.Activate(api.ActivateRequest{Name: name}); a.Err == nil ||
		a.Err.Code != api.CodeUnauthorized {
		t.Fatalf("ro activate: %v, want CodeUnauthorized", a.Err)
	}
	if r := ro.Register(api.RegisterRequest{}); r.Err == nil ||
		r.Err.Code != api.CodeUnauthorized {
		t.Fatalf("ro register: %v, want CodeUnauthorized", r.Err)
	}

	// operator: lifecycle allowed, reshaping refused.
	if a := ops.Activate(api.ActivateRequest{Name: name}); a.Err != nil {
		t.Fatalf("ops activate: %v", a.Err)
	}
	c.Eng().RunFor(5 * time.Second)
	if m := ops.Migrate(api.MigrateRequest{Name: name}); m.Err == nil ||
		m.Err.Code != api.CodeUnauthorized {
		t.Fatalf("ops migrate: %v, want CodeUnauthorized", m.Err)
	}
	if tr := ops.Transfer(api.TransferRequest{}); tr.Err == nil ||
		tr.Err.Code != api.CodeUnauthorized {
		t.Fatalf("ops transfer: %v, want CodeUnauthorized", tr.Err)
	}

	// Refusals must not have killed either session.
	if s := ro.Stats(api.StatsRequest{}); s.Err != nil {
		t.Fatalf("ro session died after refusal: %v", s.Err)
	}
	if st := ops.Stop(api.StopRequest{Name: name}); st.Err != nil {
		t.Fatalf("ops session died after refusal: %v", st.Err)
	}
	if srv.Unauthorized != 4 {
		t.Fatalf("server unauthorized count = %d, want 4", srv.Unauthorized)
	}
	if srv.ProtoErrs != 0 || srv.ActiveConns() != 3 {
		t.Fatalf("refusals disturbed sessions: protoerrs=%d conns=%d",
			srv.ProtoErrs, srv.ActiveConns())
	}
}

// TestConcurrentWatchersSurviveSiblingDrop: two operators stream stats
// while a third connection dies mid-stream — the survivors' watches
// keep delivering, and only the dead session's subscriptions are
// reclaimed.
func TestConcurrentWatchersSurviveSiblingDrop(t *testing.T) {
	c, srv := wiredCluster(t, 2)
	zone := c.Cfg.Board.Zone
	name := "alice." + zone

	admin := dialOp(t, c, "admin", 200, tokAdmin)
	w1 := dialOp(t, c, "watcher1", 201, tokRO)
	w2 := dialOp(t, c, "watcher2", 202, tokRO)
	if srv.ActiveConns() != 3 {
		t.Fatalf("active conns = %d, want 3", srv.ActiveConns())
	}

	if reg := admin.Register(api.RegisterRequest{Config: core.ServiceConfig{
		Name: name, IP: netstack.IPv4(10, 0, 0, 20), Port: 80,
		Image: unikernel.UnikernelImage("alice", nil),
	}}); reg.Err != nil {
		t.Fatalf("register: %v", reg.Err)
	}

	snaps1, snaps2, doomed := 0, 0, 0
	for _, w := range []struct {
		cl *wire.Client
		n  *int
	}{{w1, &snaps1}, {w2, &snaps2}, {admin, &doomed}} {
		n := w.n
		if resp := w.cl.WatchStats(api.WatchStatsRequest{Every: time.Second,
			OnStats: func(api.StatsResponse) bool { *n++; return true }}); resp.Err != nil {
			t.Fatalf("watch: %v", resp.Err)
		}
	}
	if srv.ActiveWatches() != 3 {
		t.Fatalf("active watches = %d, want 3", srv.ActiveWatches())
	}

	c.Eng().RunFor(3 * time.Second)
	if snaps1 == 0 || snaps2 == 0 || doomed == 0 {
		t.Fatalf("streams idle: %d %d %d", snaps1, snaps2, doomed)
	}

	// The admin console vanishes mid-stream (RST, no courtesy cancel).
	admin.Abort()
	doomedAt := doomed
	c.Eng().RunFor(5 * time.Second)

	if srv.ActiveConns() != 2 || srv.ActiveWatches() != 2 {
		t.Fatalf("after drop: conns=%d watches=%d, want 2/2",
			srv.ActiveConns(), srv.ActiveWatches())
	}
	if doomed != doomedAt {
		t.Fatalf("dead session kept receiving: %d -> %d", doomedAt, doomed)
	}
	// Siblings kept streaming at the 1s cadence through the teardown.
	if snaps1 < 5 || snaps2 < 5 {
		t.Fatalf("sibling watches stalled: %d %d", snaps1, snaps2)
	}
	if w1.Pending() != 1 || w2.Pending() != 1 {
		t.Fatalf("survivor registrations: %d %d", w1.Pending(), w2.Pending())
	}
}

// TestClientCloseCancelsWatches: an explicit Close sends TWatchCancel
// for every outstanding watch — the server reclaims them through the
// cancel path, not the connection-teardown path — and Pending reads 0.
func TestClientCloseCancelsWatches(t *testing.T) {
	c, srv := wiredCluster(t, 1)
	cl := dialOp(t, c, "console", 200, tokRO)

	for i := 0; i < 2; i++ {
		if resp := cl.WatchStats(api.WatchStatsRequest{Every: time.Second,
			OnStats: func(api.StatsResponse) bool { return true }}); resp.Err != nil {
			t.Fatalf("watch %d: %v", i, resp.Err)
		}
	}
	c.Eng().RunFor(2 * time.Second)
	if srv.ActiveWatches() != 2 || cl.Pending() != 2 {
		t.Fatalf("watches: server=%d client=%d, want 2/2", srv.ActiveWatches(), cl.Pending())
	}

	cl.Close()
	if cl.Pending() != 0 {
		t.Fatalf("pending after close = %d, want 0", cl.Pending())
	}
	c.Eng().RunFor(2 * time.Second)
	if srv.ActiveWatches() != 0 {
		t.Fatalf("server watches after close = %d, want 0", srv.ActiveWatches())
	}
	if srv.WatchCancels != 2 {
		t.Fatalf("cancels = %d, want 2 (reclaim must ride TWatchCancel)", srv.WatchCancels)
	}
	if srv.ProtoErrs != 0 {
		t.Fatalf("close tripped protocol errors: %d", srv.ProtoErrs)
	}
}

// TestInteropMatrix pins every cell of the handshake. A wire.Client
// dials with a good, bad or missing token under either anonymous
// policy. A raw peer offers a range without Version (answered
// HelloAck{0}, session closed), frames its Hello at the retired version
// 1 (dropped unanswered), or rebadges a frame to version 1 after the
// handshake (dropped).
func TestInteropMatrix(t *testing.T) {
	hello := func(lo, hi uint16) []byte {
		return frame(t, wire.THello, 1, wire.Hello{Min: lo, Max: hi, Token: tokAdmin})
	}
	v1 := func(b []byte) []byte { b[4] = 1; return b }
	type cell struct {
		name      string
		anonymous api.Scope // the server's anonymous-session policy
		token     string    // what a wire.Client dials with
		wantScope api.Scope // the dialled session's grant; ScopeNone = refused
		raw       [][]byte  // set: a raw peer sends these frames instead
		wantAcks  []uint16  // the versions the raw peer's HelloAcks carry
		wantDrops uint64    // the server's ProtoErrs after the raw peer
	}
	cells := []cell{
		{name: "v2-v2-token", token: tokOps, wantScope: api.ScopeOperator},
		{name: "v2-v2-bad-token", token: "stolen"},
		{name: "v2-v2-anonymous-refused"},
		{name: "v2-v2-anonymous-policy", anonymous: api.ScopeReadOnly, wantScope: api.ScopeReadOnly},
		{name: "v2-v2-token-anonymous-policy", anonymous: api.ScopeReadOnly, token: tokOps,
			wantScope: api.ScopeOperator},
		{name: "v2-v2-bad-token-anonymous-policy", anonymous: api.ScopeReadOnly, token: "stolen"},
		{name: "range-1-1", raw: [][]byte{hello(1, 1)}, wantAcks: []uint16{0}},
		{name: "range-3-9", raw: [][]byte{hello(3, 9)}, wantAcks: []uint16{0}},
		{name: "v1-framed-hello", raw: [][]byte{v1(hello(wire.Version, wire.Version))}, wantDrops: 1},
		{name: "v1-frame-after-handshake", raw: [][]byte{hello(wire.Version, wire.Version),
			v1(frame(t, wire.TStatsReq, 2, api.StatsRequest{}))},
			wantAcks: []uint16{wire.Version}, wantDrops: 1},
	}
	for i, cc := range cells {
		t.Run(cc.name, func(t *testing.T) {
			c := cluster.NewCluster(cluster.WithBoards(2), cluster.WithSeed(int64(5)))
			srv, err := c.ServeWire(cluster.WireConfig{
				Apps: staticApps, Keyring: testKeyring(), Anonymous: cc.anonymous,
			})
			if err != nil {
				t.Fatal(err)
			}
			if cc.raw != nil {
				conn, got := rawConn(t, c, byte(210+i))
				for _, b := range cc.raw {
					if err := conn.Send(b); err != nil {
						t.Fatal(err)
					}
				}
				c.Eng().RunFor(time.Second)
				var acks []uint16
				for typ, msgs := range got {
					if typ != wire.THelloAck {
						t.Fatalf("server sent %d frames of type 0x%02x", len(msgs), typ)
					}
					for _, m := range msgs {
						acks = append(acks, m.(wire.HelloAck).Version)
					}
				}
				if !slices.Equal(acks, cc.wantAcks) {
					t.Fatalf("HelloAcks carry versions %v, want %v", acks, cc.wantAcks)
				}
				if srv.ProtoErrs != cc.wantDrops || srv.ActiveConns() != 0 {
					t.Fatalf("protoerrs=%d conns=%d, want %d and a closed session",
						srv.ProtoErrs, srv.ActiveConns(), cc.wantDrops)
				}
				return
			}

			console := c.AttachMgmtHost("console", byte(210+i))
			cl, err := wire.DialSession(c.Eng(), console, serverIP, wirePort, wire.SessionConfig{Token: cc.token})
			if cc.wantScope == api.ScopeNone {
				var ae *api.Error
				if !errors.As(err, &ae) || ae.Code != api.CodeUnauthorized {
					t.Fatalf("dial = %v, want a CodeUnauthorized refusal", err)
				}
				if srv.Unauthorized != 1 || srv.ActiveConns() != 0 {
					t.Fatalf("unauthorized=%d conns=%d, want 1 and a closed session",
						srv.Unauthorized, srv.ActiveConns())
				}
				return
			}
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			if cl.Scope() != cc.wantScope {
				t.Fatalf("scope %s, want %s", cl.Scope(), cc.wantScope)
			}
			// Every accepted session can observe...
			if s := cl.Stats(api.StatsRequest{}); s.Err != nil {
				t.Fatalf("stats: %v", s.Err)
			}
			// ...and the read-only ones cannot act.
			act := cl.Activate(api.ActivateRequest{Name: "nobody.example"})
			if cc.wantScope.Allows(api.ScopeOperator) {
				if act.Err == nil || act.Err.Code != api.CodeNotFound {
					t.Fatalf("activate: %v, want CodeNotFound", act.Err)
				}
			} else {
				if act.Err == nil || act.Err.Code != api.CodeUnauthorized {
					t.Fatalf("activate: %v, want CodeUnauthorized", act.Err)
				}
			}
		})
	}
}

// TestRemoteSessionDeterministic runs the same scripted multi-session
// exchange twice under the same seed and demands bit-identical console
// traffic: the capture fingerprint covers every frame byte and
// delivery instant.
func TestRemoteSessionDeterministic(t *testing.T) {
	run := func() uint64 {
		c := cluster.NewCluster(
			cluster.WithBoards(3),
			cluster.WithSeed(7),
			cluster.WithBoardOptions(core.WithDisk(blockdev.DefaultConfig())),
		)
		if _, err := c.ServeWire(cluster.WireConfig{
			Apps: staticApps, Keyring: testKeyring(),
		}); err != nil {
			t.Fatal(err)
		}
		console := c.AttachMgmtHost("console", 200)
		tap := netsim.NewCapture(c.Eng(), 1<<14)
		console.NIC.Link().Tap(tap)
		cl, err := wire.DialSession(c.Eng(), console, serverIP, wirePort,
			wire.SessionConfig{Token: tokAdmin})
		if err != nil {
			t.Fatal(err)
		}
		viewer := dialOp(t, c, "viewer", 201, tokRO)
		viewer.WatchStats(api.WatchStatsRequest{Every: time.Second,
			OnStats: func(api.StatsResponse) bool { return true }})

		name := "alice." + c.Cfg.Board.Zone
		cl.Register(api.RegisterRequest{Config: core.ServiceConfig{
			Name: name, IP: netstack.IPv4(10, 0, 0, 20), Port: 80,
			Image: unikernel.UnikernelImage("alice", nil),
		}})
		cl.Activate(api.ActivateRequest{Name: name})
		c.Eng().RunFor(5 * time.Second)
		cl.Demote(api.DemoteRequest{Name: name})
		c.Eng().RunFor(2 * time.Second)
		cl.Promote(api.PromoteRequest{Name: name})
		c.Eng().RunFor(5 * time.Second)
		cl.Stats(api.StatsRequest{})
		cl.Close()
		viewer.Close()
		c.Eng().RunFor(5 * time.Second)
		return tap.Fingerprint()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("console capture fingerprints differ: %016x vs %016x", a, b)
	}
	if a == 0 {
		t.Fatal("empty capture — the tap saw no frames")
	}
}
