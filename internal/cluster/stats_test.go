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
		for name, n := range b.Jitsu.Activation().Fired() {
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
			if !p.gone && p.Svc.State.Booted() {
				ready++
			}
			if !p.gone && p.Svc.State == core.StateColdDisk {
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
