package cluster

import (
	"fmt"
	"testing"
)

// checkQuiescent asserts what the directory tier must hold once the
// engine has drained (ROADMAP 1(b), first slice): nothing parked at the
// root, caches no larger than the names asked, and every member cluster
// at rest (checkClusterQuiescent). asked is the number of distinct names
// the test's clients resolved.
func checkQuiescent(t *testing.T, f *Federation, asked int) {
	t.Helper()
	r := f.root
	if n := r.pending.Outstanding(); n != 0 {
		t.Errorf("quiescent: root still parks %d delegations", n)
	}
	for what, n := range map[string]int{"delegation": len(r.deleg), "negative": len(r.neg)} {
		if n > asked || n > maxFedCacheEntries {
			t.Errorf("quiescent: %s cache holds %d entries for %d names asked (cap %d)", what, n, asked, maxFedCacheEntries)
		}
	}
	for _, m := range f.members {
		checkClusterQuiescent(t, fmt.Sprintf("quiescent: cluster %d", m.ID), m.Cluster)
	}
}

// checkClusterQuiescent is the cluster's share: no ping awaiting its ack
// — a probe or a relayed one, a stopped agent's included: stop aborts
// them — no checkpoint copy in flight and every replica slot open or gone (none left mid-move), the
// name-ordered directory equal to its map, no in-place walk left open,
// and every entry's count equal to a recount.
func checkClusterQuiescent(t *testing.T, when string, c *Cluster) {
	t.Helper()
	for _, m := range c.members {
		a := m.agent
		if n := a.acks.Outstanding(); n > 0 {
			t.Errorf("%s: board %d (stopped %v) still awaits %d ping acks", when, m.ID, a.stopped, n)
		}
		if n := len(a.xfers); n != 0 {
			t.Errorf("%s: board %d's copier still runs %d transfers", when, m.ID, n)
		}
	}
	checkDirectory(t, c, when)
	if c.dir.walking != 0 {
		t.Errorf("%s: %d in-place directory walks left open", when, c.dir.walking)
	}
	for e := range c.dir.walk {
		if got, want := e.readyCount(), len(refReady(e)); got != want {
			t.Errorf("%s: %s counts %d ready replicas, a recount %d", when, e.Name, got, want)
		}
		for _, p := range e.Replicas {
			if p != nil && !p.in(slotOpen|slotGone) {
				t.Errorf("%s: %s's slot on board %d is left %s", when, e.Name, p.Board, p.state)
			}
		}
	}
}

// TestSlotTransitions holds Placement.to to the slot lifecycle: each
// transition a move, a departure or an Unregister makes is taken, every
// other one panics, and a gone slot (or a move's missing destination)
// takes no write.
func TestSlotTransitions(t *testing.T) {
	listed := map[[2]slotState]bool{
		{slotOpen, slotSource}: true, {slotOpen, slotReserved}: true, // start
		{slotSource, slotOpen}: true, {slotReserved, slotOpen}: true, // release, switchover
		{slotSource, slotDraining}: true, // switchover
		{slotDraining, slotOpen}:   true, // retire
	}
	all := []slotState{slotOpen, slotSource, slotDraining, slotReserved, slotGone}
	mv := &move{}
	for _, from := range all[:4] {
		for _, to := range all {
			want := listed[[2]slotState{from, to}] || to == slotGone
			p := &Placement{state: from}
			panicked := func() (panicked bool) {
				defer func() { panicked = recover() != nil }()
				p.to(to, mv)
				return false
			}()
			if panicked == want || (want && p.state != to) {
				t.Errorf("%s → %s: panicked %v, slot left %s; want the transition taken: %v", from, to, panicked, p.state, want)
			}
		}
	}
	for _, to := range all {
		p := &Placement{state: slotGone}
		p.to(to, mv)
		if p.state != slotGone || p.mv != nil {
			t.Errorf("gone → %s: slot left %s holding move %v", to, p.state, p.mv)
		}
	}
	var missing *Placement
	missing.to(slotReserved, nil)
}
