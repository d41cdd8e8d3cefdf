package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/blockdev"
	"jitsu/internal/core"
	"jitsu/internal/obs"
	"jitsu/internal/wire"
)

// checkDirectory holds the cluster directory's name-ordered slice to
// the map it shadows, and every live board's directory to its replica
// slots: name-ordered, and each entry the one a lookup by name finds.
func checkDirectory(t *testing.T, c *Cluster, when string) {
	t.Helper()
	names := make([]string, 0, len(c.dir.entries))
	for name := range c.dir.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(c.dir.ordered) != len(names) {
		t.Fatalf("%s: ordered holds %d entries, the map %d", when, len(c.dir.ordered), len(names))
	}
	for i, name := range names {
		if c.dir.ordered[i] != c.dir.entries[name] {
			t.Fatalf("%s: ordered[%d] = %q, want the entry filed as %q", when, i, c.dir.ordered[i].Name, name)
		}
	}
	for _, m := range c.members {
		svcs := m.Board.Jitsu.Services()
		slots := 0
		for _, e := range c.dir.ordered {
			if replicaOn(e, m.ID) != nil {
				slots++
			}
		}
		if len(svcs) != slots {
			t.Fatalf("%s: board %d lists %d services for %d live replica slots", when, m.ID, len(svcs), slots)
		}
		for i, svc := range svcs {
			if i > 0 && svcs[i-1].Cfg.Name >= svc.Cfg.Name {
				t.Fatalf("%s: board %d lists %q before %q", when, m.ID, svcs[i-1].Cfg.Name, svc.Cfg.Name)
			}
			if got, err := m.Board.Jitsu.Service(svc.Cfg.Name); err != nil || got != svc {
				t.Fatalf("%s: board %d lists a %q that a lookup does not find", when, m.ID, svc.Cfg.Name)
			}
		}
	}
}

// TestOrderedDirectoryMatchesMap plays seeded streams of Register,
// re-Register, Unregister, AddBoard and Leave, and checks both tiers'
// ordered slices against their maps after every operation.
func TestOrderedDirectoryMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCluster(WithBoards(2), WithSeed(seed))
		for step := 0; step < 80; step++ {
			name := fmt.Sprintf("site%02d", rng.Intn(24))
			switch op := rng.Intn(10); {
			case op < 5:
				c.RegisterService(testService(name, byte(20+rng.Intn(200)))) // a held name is replaced
			case op < 8:
				c.Unregister(name + ".family.name")
			case op == 8 && len(c.members) < 6:
				c.AddBoard()
			default:
				c.Leave(1+rng.Intn(len(c.members)-1), nil) // refused for boards already gone
			}
			checkDirectory(t, c, fmt.Sprintf("seed %d step %d", seed, step))
			if rng.Intn(4) == 0 {
				c.Eng().RunFor(time.Second) // departures complete, joins are applied
				checkDirectory(t, c, fmt.Sprintf("seed %d step %d, settled", seed, step))
			}
		}
	}
}

// refFired is the old per-trigger rendering: merge the boards' firing
// counters in a map, sort its keys.
func refFired(boards ...*core.Board) []api.TriggerStats {
	fired := map[string]uint64{}
	for _, b := range boards {
		for name, n := range b.Jitsu.Activation().Fired {
			fired[name] += n
		}
	}
	names := make([]string, 0, len(fired))
	for name := range fired {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]api.TriggerStats, 0, len(names))
	for _, name := range names {
		out = append(out, api.TriggerStats{Name: name, Fired: fired[name]})
	}
	return out
}

// refClusterStats is clusterPlane.Stats as it was: clone and sort the
// directory map, sum every service's replicas, grow every slice from
// nil.
func refClusterStats(c *Cluster) api.StatsResponse {
	var entries []*Entry
	for _, e := range c.dir.entries {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	var resp api.StatsResponse
	for _, e := range entries {
		row := api.ServiceStats{Name: e.Name}
		ready, onDisk := 0, 0
		for _, p := range e.Replicas {
			if p == nil {
				continue
			}
			row.Launches += p.Svc.Launches
			row.ColdStarts += p.Svc.ColdStarts
			row.Handoffs += p.Svc.Handoffs
			row.ServFails += p.Svc.ServFails
			row.Reaps += p.Svc.Reaps
			row.Restores += p.Svc.Restores
			row.DiskRestores += p.Svc.DiskRestores
			row.Demotions += p.Svc.Demotions
			if p.state != slotGone && p.Svc.State.Booted() {
				ready++
			}
			if p.state != slotGone && p.Svc.State == core.StateColdDisk {
				onDisk++
			}
		}
		switch {
		case ready > 0:
			row.State = core.StateRunning
		case onDisk > 0:
			row.State = core.StateColdDisk
		}
		resp.Services = append(resp.Services, row)
	}
	resp.Triggers = refFired(c.Boards...)
	resp.Registries = append(resp.Registries, c.Reg.Snapshot())
	for _, m := range c.members {
		resp.Registries = append(resp.Registries, m.Board.Reg.Snapshot())
	}
	return resp
}

// refBoardStats is boardPlane.Stats as it was: collect the names, sort
// them, look each one up.
func refBoardStats(b *core.Board) api.StatsResponse {
	var names []string
	for _, svc := range b.Jitsu.Services() {
		names = append(names, svc.Cfg.Name)
	}
	rand.New(rand.NewSource(int64(len(names)))).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	sort.Strings(names)
	var resp api.StatsResponse
	for _, name := range names {
		svc, _ := b.Jitsu.Service(name)
		resp.Services = append(resp.Services, api.ServiceStats{
			Name: name, State: svc.State,
			Counters: core.Counters{
				Launches: svc.Launches, ColdStarts: svc.ColdStarts,
				Handoffs: svc.Handoffs, ServFails: svc.ServFails,
				Reaps: svc.Reaps, Restores: svc.Restores,
				DiskRestores: svc.DiskRestores, Demotions: svc.Demotions,
			},
		})
	}
	resp.Triggers = refFired(b)
	resp.Registries = []obs.Snapshot{b.Reg.Snapshot()}
	return resp
}

// sameStats holds a Stats answer to its reference: equal as values and
// byte-equal as a wire frame.
func sameStats(t *testing.T, when string, got, want api.StatsResponse) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got  %+v\n want %+v", when, got, want)
	}
	a, errA := wire.Append(nil, wire.Version, wire.TStatsResp, 1, got)
	b, errB := wire.Append(nil, wire.Version, wire.TStatsResp, 1, want)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("%s: frames differ (%v, %v)", when, errA, errB)
	}
}

// TestStatsMatchesReference drives a disk-tiered cluster through a
// seeded script of lifecycle verbs — activate, demote, promote, stop,
// migrate, a late registration, a removal — and holds the cluster's and
// every board's Stats to the old implementations along the way.
func TestStatsMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCluster(WithBoards(4), WithSeed(seed),
			WithBoardOptions(core.WithDisk(blockdev.DefaultConfig())))
		ctl := c.API()
		// Registered in no order, so the directory has sorting to do.
		for _, i := range rng.Perm(16) {
			ctl.Register(api.RegisterRequest{Config: testService(fmt.Sprintf("site%02d", i), byte(20+i))})
		}
		// pick draws a service for a verb: one the verb can act on when
		// there is one, else any name — two of the 18 are never registered.
		pick := func(fits func(*Entry) bool) string {
			var names []string
			for _, e := range c.dir.Entries() {
				if fits(e) {
					names = append(names, e.Name)
				}
			}
			if len(names) == 0 || rng.Intn(5) == 0 {
				return fmt.Sprintf("site%02d.family.name", rng.Intn(18))
			}
			return names[rng.Intn(len(names))]
		}
		booted := func(e *Entry) bool { return len(refReady(e)) > 0 }
		did := map[string]int{}
		for step := 0; step < 150; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2:
				if ctl.Activate(api.ActivateRequest{Name: pick(func(e *Entry) bool { return !booted(e) })}).Err == nil {
					did["activate"]++
				}
			case 3, 4:
				if ctl.Demote(api.DemoteRequest{Name: pick(booted), Board: api.AnyBoard}).Err == nil {
					did["demote"]++
				}
			case 5, 6:
				if ctl.Promote(api.PromoteRequest{Name: pick(func(e *Entry) bool { return len(refOnDisk(e)) > 0 }), Board: api.AnyBoard}).Err == nil {
					did["promote"]++
				}
			case 7:
				did["stop"] += ctl.Stop(api.StopRequest{Name: pick(booted)}).Stopped
			case 8:
				if ctl.Migrate(api.MigrateRequest{Name: pick(booted), From: api.AnyBoard, To: api.AnyBoard}).Started {
					did["migrate"]++
				}
			case 9:
				n := rng.Intn(18)
				if name := fmt.Sprintf("site%02d", n); !c.Unregister(name + ".family.name") {
					ctl.Register(api.RegisterRequest{Config: testService(name, byte(20+n))})
				}
			}
			c.Eng().RunFor(time.Duration(rng.Intn(400)) * time.Millisecond)
			when := fmt.Sprintf("seed %d step %d", seed, step)
			sameStats(t, when+", cluster", ctl.Stats(api.StatsRequest{}), refClusterStats(c))
			b := c.Boards[rng.Intn(len(c.Boards))]
			sameStats(t, when+", one board", api.ForBoard(b).Stats(api.StatsRequest{}), refBoardStats(b))
		}
		for _, verb := range []string{"activate", "demote", "promote", "stop", "migrate"} {
			if did[verb] == 0 {
				t.Fatalf("seed %d: the script never completed a %s (%v)", seed, verb, did)
			}
		}
	}
}

// freshDecode is a snapshot as a client decoded it before streams and
// Stats buffers reused their arrays: encoded, then decoded statelessly.
func freshDecode(t *testing.T, s api.StatsResponse) api.StatsResponse {
	t.Helper()
	buf, err := wire.Append(nil, wire.Version, wire.TStatsResp, 1, s)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, msg, _, err := wire.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	return msg.(api.StatsResponse)
}

// statsOracle fronts a control plane on the wire and takes a fresh
// Stats at the instant of every snapshot it serves — each Stats verb and
// each watch tick — for the client's deliveries to be held to, in the
// order they were sent. A tick is also held, in process, to that fresh
// Stats.
type statsOracle struct {
	api.ControlPlane
	t            *testing.T
	verbs, ticks []api.StatsResponse
}

func (o *statsOracle) Stats(req api.StatsRequest) api.StatsResponse {
	o.verbs = append(o.verbs, o.ControlPlane.Stats(api.StatsRequest{}))
	return o.ControlPlane.Stats(req)
}

func (o *statsOracle) WatchStats(req api.WatchStatsRequest) api.WatchStatsResponse {
	on := req.OnStats
	req.OnStats = func(s api.StatsResponse) bool {
		fresh := o.ControlPlane.Stats(api.StatsRequest{})
		sameStats(o.t, "server tick", s, fresh)
		o.ticks = append(o.ticks, fresh)
		return on(s)
	}
	return o.ControlPlane.WatchStats(req)
}

// pop takes the oldest reference off q.
func pop(t *testing.T, q *[]api.StatsResponse, what string) api.StatsResponse {
	t.Helper()
	if len(*q) == 0 {
		t.Fatalf("a %s arrived that the server never sent", what)
	}
	s := (*q)[0]
	*q = (*q)[1:]
	return s
}

// TestReusedStatsMatchFresh drives a disk-tiered cluster through a
// seeded lifecycle script — services activated, demoted, promoted,
// stopped, migrated, registered and removed — and holds every snapshot
// that reuses a buffer to a fresh Stats taken at the same instant: the
// cluster's and a board's in-process streams and Into fills, and over
// the wire a watch stream and Stats into an Into buffer, both held to
// the fresh snapshot encoded and decoded statelessly. Rows of a longer
// earlier snapshot must never leak into a shorter later one.
func TestReusedStatsMatchFresh(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCluster(WithBoards(4), WithSeed(seed),
			WithBoardOptions(core.WithDisk(blockdev.DefaultConfig())))
		ctl := c.API()
		for _, i := range rng.Perm(16) {
			ctl.Register(api.RegisterRequest{Config: testService(fmt.Sprintf("site%02d", i), byte(20+i))})
		}
		oracle := &statsOracle{ControlPlane: ctl, t: t}
		if _, err := wire.Serve(c.MgmtHost(0), oracle, wire.ServerConfig{Anonymous: api.ScopeReadOnly}); err != nil {
			t.Fatal(err)
		}
		cl, err := wire.DialSession(c.Eng(), c.AttachMgmtHost("console", 200), c.MgmtHost(0).IP, wire.DefaultPort, wire.SessionConfig{})
		if err != nil {
			t.Fatal(err)
		}
		streamed := 0
		if w := cl.WatchStats(api.WatchStatsRequest{Every: 70 * time.Millisecond, OnStats: func(s api.StatsResponse) bool {
			streamed++
			if want := freshDecode(t, pop(t, &oracle.ticks, "stats event")); !reflect.DeepEqual(s, want) {
				t.Fatalf("seed %d: stats event %d:\n got  %+v\n want %+v", seed, streamed, s, want)
			}
			return true
		}}); w.Err != nil {
			t.Fatal(w.Err)
		}
		board := api.ForBoard(c.Boards[1])
		for _, p := range []api.ControlPlane{ctl, board} {
			if w := p.WatchStats(api.WatchStatsRequest{Every: 90 * time.Millisecond, OnStats: func(s api.StatsResponse) bool {
				sameStats(t, fmt.Sprintf("seed %d, in-process tick", seed), s, p.Stats(api.StatsRequest{}))
				return true
			}}); w.Err != nil {
				t.Fatal(w.Err)
			}
		}

		var remote, local, one api.StatsBuf
		moved := 0
		for step := 0; step < 120; step++ {
			name := fmt.Sprintf("site%02d.family.name", rng.Intn(18))
			switch rng.Intn(8) {
			case 0, 1:
				ctl.Activate(api.ActivateRequest{Name: name})
			case 2:
				ctl.Demote(api.DemoteRequest{Name: name})
			case 3:
				ctl.Promote(api.PromoteRequest{Name: name})
			case 4:
				ctl.Stop(api.StopRequest{Name: name})
			case 5:
				ctl.Migrate(api.MigrateRequest{Name: name})
			default:
				// Removals outnumber registrations until few are left, then
				// the directory grows back: snapshots shrink and regrow.
				if n := len(c.dir.ordered); n > 3 && (step/30)%2 == 0 {
					c.Unregister(c.dir.ordered[rng.Intn(n)].Name)
				} else {
					n := rng.Intn(18)
					ctl.Register(api.RegisterRequest{Config: testService(fmt.Sprintf("site%02d", n), byte(20+n))})
				}
			}
			c.Eng().RunFor(time.Duration(rng.Intn(300)) * time.Millisecond)
			when := fmt.Sprintf("seed %d step %d", seed, step)

			before := remote.Resp.Services
			got := cl.Stats(api.StatsRequest{Into: &remote})
			if got.Err != nil {
				t.Fatalf("%s: %v", when, got.Err)
			}
			if want := freshDecode(t, pop(t, &oracle.verbs, "stats response")); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(remote.Resp, want) {
				t.Fatalf("%s, over the wire:\n got  %+v\n want %+v", when, got, want)
			}
			if len(before) > 0 && len(got.Services) > 0 && &before[:1][0] != &got.Services[0] {
				moved++
			}
			sameStats(t, when+", cluster", ctl.Stats(api.StatsRequest{Into: &local}), ctl.Stats(api.StatsRequest{}))
			sameStats(t, when+", one board", board.Stats(api.StatsRequest{Into: &one}), board.Stats(api.StatsRequest{}))
		}
		// The directory emptied: the buffers refill to no rows at all.
		for _, e := range c.dir.Entries() {
			c.Unregister(e.Name)
		}
		c.Eng().RunFor(time.Second)
		sameStats(t, "empty cluster", ctl.Stats(api.StatsRequest{Into: &local}), ctl.Stats(api.StatsRequest{}))
		sameStats(t, "empty board", board.Stats(api.StatsRequest{Into: &one}), board.Stats(api.StatsRequest{}))
		if streamed < 100 || moved > 10 {
			t.Fatalf("seed %d: %d stats events, the Into buffer's rows moved %d times in 120 verbs", seed, streamed, moved)
		}
		if len(oracle.ticks) > 1 || len(oracle.verbs) != 0 {
			t.Fatalf("seed %d: %d ticks and %d responses sent but never delivered", seed, len(oracle.ticks), len(oracle.verbs))
		}
		cl.Close()
	}
}
