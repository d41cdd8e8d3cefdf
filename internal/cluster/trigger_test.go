package cluster

import (
	"bytes"
	"testing"

	"jitsu/internal/api"
	"jitsu/internal/dns"
)

// frontDoorCluster is two boards behind board 0's DNS: a placed name, a
// name no board has room for, a name only board 0's Jitsu knows, a
// moved entry, and a service kept warm on both boards.
func frontDoorCluster() *Cluster {
	c := NewCluster(WithBoards(2), WithSeed(1))
	c.RegisterService(testService("alice", 20))
	huge := testService("huge", 21)
	huge.Image.MemMiB = 4096
	c.RegisterService(huge)
	c.Boards[0].Jitsu.Register(testService("local", 22))
	c.RegisterService(testService("gone", 23)).moved = true
	c.RegisterService(testService("pool", 24), WithMinWarm(2))
	c.RunAll()
	return c
}

func frontQuery(t *testing.T, name string, typ dns.Type) []byte {
	t.Helper()
	q := dns.Message{ID: 0x77, RecursionDesired: true,
		Questions: []dns.Question{{Name: name + ".family.name", Type: typ, Class: dns.ClassIN}}}
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestFrontDoorServesInPlace holds board 0's one DNS hook to the
// decode/answer/encode path it replaced: two identical clusters take the
// same queries, one through ServeWire's in-place parse and one through
// Answer and Encode, and every reply is the same bytes. A placed answer
// (VerdictOnce) is never served from the cache nor counted in it; the
// names the hook hands to board 0's own Jitsu are.
func TestFrontDoorServesInPlace(t *testing.T) {
	fast, slow := frontDoorCluster(), frontDoorCluster()
	queries := []struct {
		name   string
		typ    dns.Type
		cached bool
	}{
		{"alice", dns.TypeA, false},  // placed: a cold boot
		{"alice", dns.TypeA, false},  // placed again: the booting replica
		{"huge", dns.TypeA, false},   // refused: SERVFAIL
		{"local", dns.TypeA, true},   // board 0's own Jitsu
		{"nobody", dns.TypeA, true},  // NXDOMAIN from the zone
		{"alice", dns.TypeTXT, true}, // not an A query: the zone
		{"gone", dns.TypeA, true},    // moved: board 0's own replica
		{"pool", dns.TypeANY, false}, // placed: a warm hit
		{"LOCAL", dns.TypeA, true},   // case-folded, from the cache
		{"alice", dns.TypeA, false},  // placed, now warm
	}
	srv := fast.Boards[0].DNS
	for i, q := range queries {
		wire := frontQuery(t, q.name, q.typ)
		counted := srv.CacheHits + srv.CacheMisses
		var got []byte
		srv.ServeWire(wire, func(w []byte) { got = bytes.Clone(w) })
		decoded, err := dns.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		want, err := slow.Boards[0].DNS.Answer(decoded).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("query %d (%s %v): in place %x, Answer+Encode %x", i, q.name, q.typ, got, want)
		}
		if moved := srv.CacheHits+srv.CacheMisses != counted; moved != q.cached {
			t.Errorf("query %d (%s %v): cache counters moved %v, want %v", i, q.name, q.typ, moved, q.cached)
		}
		fast.RunAll()
		slow.RunAll()
	}
	if srv.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1 (the case-folded repeat)", srv.CacheHits)
	}
	if fast.WarmHits != slow.WarmHits || fast.Placed != slow.Placed || fast.ServFails != slow.ServFails ||
		fast.Placed == 0 || fast.WarmHits == 0 || fast.ServFails != 1 {
		t.Errorf("scheduler counters: in place %d/%d/%d, Answer %d/%d/%d (warm/placed/servfail)",
			fast.WarmHits, fast.Placed, fast.ServFails, slow.WarmHits, slow.Placed, slow.ServFails)
	}
}

// TestFrontDoorRotatesWarmReplicas: two queries for a service warm on
// both boards name both boards — a placed answer never comes from the
// cache — and a warm front-door query allocates only its reply's
// question and answer (pinned).
func TestFrontDoorRotatesWarmReplicas(t *testing.T) {
	c := frontDoorCluster()
	srv := c.Boards[0].DNS
	wire := frontQuery(t, "pool", dns.TypeA)
	counted := srv.CacheHits + srv.CacheMisses
	var boards []byte
	for i := 0; i < 2; i++ {
		srv.ServeWire(wire, func(w []byte) {
			m, err := dns.Decode(w)
			if err != nil || len(m.Answers) != 1 {
				t.Fatalf("reply %x: %v", w, err)
			}
			boards = append(boards, m.Answers[0].A[2])
		})
	}
	if boards[0]+boards[1] != 100+101 || boards[0] == boards[1] {
		t.Fatalf("two warm queries answered by board octets %v, want 100 and 101: the placed answer was cached", boards)
	}
	if srv.CacheHits+srv.CacheMisses != counted {
		t.Fatal("placed answers moved the cache counters")
	}
	sink := func([]byte) {}
	if got := testing.AllocsPerRun(200, func() { srv.ServeWire(wire, sink) }); got != frontDoorAllocs {
		t.Errorf("a warm front-door query allocates %.2f, want %d", got, frontDoorAllocs)
	}
}

// frontDoorAllocs is a warm front-door query: the reply's question
// slice, its name and its one-record answer slice (the encode reuses the
// server's buffer; the placement itself allocates nothing).
const frontDoorAllocs = 3

// TestClusterActivateSurvivesPoolReconcile pins the schedule() fix: a
// control-plane activation must feed the rate estimator and pin its
// replica, so the next unrelated reconcile pass doesn't reclaim it.
func TestClusterActivateSurvivesPoolReconcile(t *testing.T) {
	c := NewCluster(WithBoards(2))
	ctl := c.API()
	ctl.Register(api.RegisterRequest{Config: testService("alice", 20)})

	var readyErr error
	resp := ctl.Activate(api.ActivateRequest{Name: "alice.family.name",
		OnReady: func(err error) { readyErr = err }})
	if resp.Err != nil {
		t.Fatalf("activate: %v", resp.Err)
	}
	c.RunAll()
	if readyErr != nil {
		t.Fatalf("OnReady: %v", readyErr)
	}
	e := c.Directory().Lookup("alice.family.name")
	if e.rate == 0 {
		t.Fatal("control-plane activation did not feed the rate estimator")
	}
	// An unrelated reconcile pass (what any next arrival triggers) must
	// not tear the fresh replica down.
	c.Pools.reconcileAll(nil)
	c.RunAll()
	if len(refReady(e)) != 1 {
		t.Fatalf("replica reclaimed right after activation (ready=%d)", len(refReady(e)))
	}

	// A warm re-activation delivers OnReady immediately, exactly once.
	calls := 0
	resp = ctl.Activate(api.ActivateRequest{Name: "alice.family.name",
		OnReady: func(error) { calls++ }})
	if resp.Err != nil || calls != 1 {
		t.Fatalf("warm activate: err=%v onready-calls=%d", resp.Err, calls)
	}
}
