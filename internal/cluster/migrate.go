package cluster

import (
	"errors"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/core"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// Checkpoint moves: instead of preempting a warm unikernel and paying a
// cold boot elsewhere, the cluster checkpoints its state, copies it over
// the management link while the source keeps serving (pre-copy), lands
// it on the destination and only then retires the source — so a graceful
// board departure never turns a warm service cold. Migrate, a leaving
// board's evacuation (warm or disk-resident), parking and the federation
// shed (fedagent.go) are all one move record: a warm source restores and
// drains, a disk source lands on disk and goes at once, and a failed
// evacuation retries, then parks its checkpoint or loses the replica.

// ErrCannotLeave is returned for departures the cluster must refuse.
var ErrCannotLeave = errors.New("cluster: board cannot leave")

// Leave starts a graceful departure of board id: the member stops
// taking placements immediately, its live replicas are migrated off
// (or stopped, when migrateOnLeave is false — the preempt-and-reboot
// baseline), its remaining slots are retired, and its gossip agent
// broadcasts Left. done (may be nil) fires when the board is fully out.
// Board 0 hosts the directory and may not leave.
func (c *Cluster) Leave(id int, done func()) error {
	if id == 0 || id >= len(c.members) {
		return ErrCannotLeave
	}
	m := c.members[id]
	if m.Leaving || m.State == MemberDead || m.State == MemberLeft {
		return ErrCannotLeave
	}
	m.Leaving = true
	c.Leaves++
	c.evacuate(m, func() {
		// Synchronous state flip (the gossip blast confirms it a
		// management round-trip later); deregisterBoard retires the
		// slots and bumps the DNS epochs.
		m.State = MemberLeft
		c.deregisterBoard(id)
		m.agent.leave()
		if done != nil {
			done()
		}
	})
	return nil
}

// evacuate drains every live replica off m, then calls done. Launching
// replicas are waited for (their DNS answers are already on the wire)
// and migrated once ready. Entries() is already name-sorted, so the
// sweep order is deterministic.
func (c *Cluster) evacuate(m *Member, done func()) {
	outstanding := 1 // the sweep itself, so done can't fire early
	finish := func() {
		outstanding--
		if outstanding == 0 {
			done()
		}
	}
	for _, e := range c.dir.Entries() {
		e := e
		p := replicaOn(e, m.ID)
		if p == nil {
			continue
		}
		switch {
		case p.migrating != nil:
			// Already on its way out (an overlapping operator Migrate or
			// federation shed): starting a second copy would race it, so
			// the sweep joins that move and evacuates the replica itself
			// if the move ends with the state still here.
			outstanding++
			mv := p.migrating
			ended := mv.done
			mv.done = func(ok bool) {
				ended(ok)
				if p.movable() {
					c.evacuateOne(e, p, finish)
				} else {
					finish()
				}
			}
		case p.movable():
			outstanding++
			c.evacuateOne(e, p, finish)
		case p.Svc.State == core.StateLaunching:
			// A boot is in flight here (a client was already answered
			// with this IP). Let it finish, then move it.
			outstanding++
			dec := m.Board.Jitsu.Summon(p.Svc, core.Summon{Via: TriggerMigrate,
				OnReady: func(err error) {
					if err != nil {
						finish()
						return
					}
					c.evacuateOne(e, p, finish)
				}})
			if !dec.Served() {
				finish()
			}
		}
	}
	finish()
}

// evacuateOne moves (or, in the baseline, stops) one replica, booted or
// parked on disk.
func (c *Cluster) evacuateOne(e *Entry, p *Placement, done func()) {
	if !c.Cfg.migrateOnLeave {
		c.loseReplica(p)
		done()
		return
	}
	(&move{c: c, e: e, src: p, mandatory: true, done: func(bool) { done() }}).attempt(c.pickDest(e, p))
}

// pickDest asks e's policy for a migration destination: any placeable
// board other than p's whose replica slot is fully cold (a slot already
// holding a disk checkpoint cannot adopt a second one). Policies may be
// stateful (RoundRobin), so callers must use the returned index rather
// than picking twice.
func (c *Cluster) pickDest(e *Entry, p *Placement) int {
	return e.Policy.Pick(c.views(e, func(i int) bool {
		return i == p.Board || e.Replicas[i].Svc.State != core.StateCold
	}))
}

// loseReplica evicts a replica whose state could not be moved.
func (c *Cluster) loseReplica(p *Placement) {
	if c.Boards[p.Board].Jitsu.Evict(p.Svc) {
		c.Lost++
	}
}

// land restores cp onto e's replica on board idx: onto its disk tier
// when toDisk asks and the board has a disk with room, else warm.
func (c *Cluster) land(e *Entry, idx int, cp *core.Checkpoint, toDisk bool, onReady func(error)) *api.Error {
	req := api.RestoreRequest{Name: e.Name, Checkpoint: cp, Board: api.OnBoard(idx), ToDisk: toDisk, OnReady: onReady}
	resp := c.boardAPI(idx).Restore(req)
	if resp.Err != nil && toDisk {
		req.ToDisk = false
		resp = c.boardAPI(idx).Restore(req)
	}
	return resp.Err
}

// migrateRetry reschedules an evacuation whose transfer died on the
// wire: a second later, three tries in all.
var migrateRetry = sim.Backoff{Initial: time.Second, Factor: 1, Retries: 2}

// move is one checkpoint on its way from a source replica to a new home:
// the cold slot dst here or, with dst nil, another cluster. Its methods
// are the only writers of the source's migrating flag and the
// destination's reserved flag.
type move struct {
	c        *Cluster
	e        *Entry
	src, dst *Placement
	cp       *core.Checkpoint
	span     obs.Span
	// mandatory marks an evacuation (the source board is leaving); a
	// failed optional move (Migrate) leaves its source where it was.
	mandatory bool
	retry     int
	// done hears the move's end, after its slots are given back; an
	// evacuation sweeping the source's board joins it here.
	done func(ok bool)
}

// start captures the source's checkpoint and claims both slots for the
// copy: the source keeps serving, but no reclaim, preemption or second
// move may take it, and nothing may take the destination.
func (m *move) start() bool {
	resp := m.c.boardAPI(m.src.Board).Checkpoint(api.CheckpointRequest{Name: m.e.Name})
	if resp.Err != nil {
		return false
	}
	m.cp = resp.Checkpoint
	m.src.migrating = m
	if m.dst != nil {
		m.dst.reserved = true
	}
	return true
}

// release gives both slots back: the move ends without a switchover.
func (m *move) release() {
	m.src.migrating = nil
	if m.dst != nil {
		m.dst.reserved = false
	}
}

// movable reports whether a slot holds state a move can take: it is not
// retired and its replica is booted or parked on disk.
func (p *Placement) movable() bool {
	st := p.Svc.State
	return !p.gone && (st.Booted() || st == core.StateColdDisk)
}

// switchover hands the service to its new home: the destination's claim
// ends, and the source drains (no new answer names it) until retire.
func (m *move) switchover() {
	m.src.draining = true
	if m.dst != nil {
		m.dst.reserved = false
	}
}

// retire ends the source's drain: until then no reclaim may take it.
func (m *move) retire() { m.src.migrating = nil }

// lose writes an evacuation's replica off (the preempt baseline).
func (m *move) lose() {
	if m.mandatory {
		m.c.loseReplica(m.src)
	}
	m.done(false)
}

// fail ends a move whose checkpoint could not land: the slots go back,
// and an evacuation parks the checkpoint or, failing that, is lost.
func (m *move) fail() {
	m.release()
	if m.mandatory && m.park() {
		m.done(false)
		return
	}
	m.lose()
}

// attempt is one try at the move to board idx (-1: none fits).
func (m *move) attempt(idx int) {
	c := m.c
	if idx < 0 {
		m.lose()
		return
	}
	if m.dst = m.e.Replicas[idx]; !m.start() {
		m.lose()
		return
	}
	if tr := c.tracer(); tr != nil {
		m.span = tr.Begin(c.tidFor(m.src.Board), "migrate", "precopy",
			obs.Str("svc", m.e.Name), obs.Num("state_mib", int64(m.cp.StateMiB)),
			obs.Num("src", int64(m.src.Board)), obs.Num("dst", int64(idx)))
	}
	c.copyCheckpoint(m.src.Board, idx, m.cp.StateMiB, m.copied)
}

// copied lands the checkpoint once the copy is through.
func (m *move) copied(ok bool) {
	c := m.c
	if !ok {
		// The management path died mid-copy (chunk retries exhausted).
		// An evacuation is rescheduled — the source still holds its
		// state, the destination reserved nothing durable — with a fresh
		// pick: the first may be the very board the partition cut off.
		c.tracer().End(m.span, obs.Str("status", "copy-failed"))
		if wait, more := migrateRetry.Next(m.retry, nil); m.mandatory && more {
			m.release()
			m.retry++
			c.eng.After(wait, func() {
				if !m.src.movable() {
					m.done(false)
					return
				}
				m.attempt(c.pickDest(m.e, m.src))
			})
			return
		}
		m.fail()
		return
	}
	if !m.src.movable() {
		c.tracer().End(m.span, obs.Str("status", "source-lost"))
		m.release()
		m.done(false)
		return
	}
	c.tracer().End(m.span, obs.Str("status", "copied"))
	if m.src.Svc.State == core.StateColdDisk {
		// No client connects to a replica on disk: switch over at once.
		m.release()
		if c.land(m.e, m.dst.Board, m.cp, true, nil) != nil {
			m.fail()
			return
		}
		c.Boards[m.src.Board].Jitsu.Evict(m.src.Svc)
		c.Migrations++
		m.done(true)
		return
	}
	if tr := c.tracer(); tr != nil {
		m.span = tr.Begin(c.tidFor(m.dst.Board), "migrate", "restore",
			obs.Str("svc", m.e.Name), obs.Num("state_mib", int64(m.cp.StateMiB)))
	}
	// The destination stays reserved until the switchover: the pair
	// (ready source + restoring destination) must read as ONE replica
	// to the pool manager, or reclaim tears down a bystander.
	if c.land(m.e, m.dst.Board, m.cp, false, m.restored) != nil {
		c.tracer().End(m.span, obs.Str("status", "refused")) // no headroom left
		m.fail()
	}
}

// restored switches a warm move over: every future DNS answer names the
// destination (the source leaves the ready set and the answer epoch
// moves), but a client answered with the source IP moments ago may still
// be connecting, so the source drains out the answer-guard window.
func (m *move) restored(err error) {
	c, src, dst := m.c, m.src, m.dst
	if err != nil {
		c.tracer().End(m.span, obs.Str("status", "error"))
		m.fail()
		return
	}
	c.tracer().End(m.span, obs.Str("status", "ready"))
	m.switchover()
	dst.lastAnswered = src.lastAnswered
	c.Migrations++
	if tr := c.tracer(); tr != nil {
		tr.Instant(c.tidFor(dst.Board), "migrate", "switchover",
			obs.Str("svc", m.e.Name), obs.Num("src", int64(src.Board)), obs.Num("dst", int64(dst.Board)))
	}
	c.front().DNS.BumpEpoch()
	grace := sim.Duration(0)
	if since := c.eng.Now() - src.lastAnswered; src.lastAnswered > 0 && since < answerGuard {
		grace = answerGuard - since
	}
	c.eng.After(grace, func() {
		m.retire()
		c.Boards[src.Board].Jitsu.Evict(src.Svc)
		m.done(true)
	})
}

// park rescues the checkpoint of an evacuation that could not land (the
// destination crashed, or the management path to it partitioned): a
// board the policy picks adopts it onto its disk through the in-process
// board API, which a wrecked management network cannot stop, so the
// next activation resumes from disk instead of cold-booting. The failed
// destination is not excluded: one merely unreachable (or out of guest
// memory) can still adopt. False when no board has a cold slot and disk.
func (m *move) park() bool {
	c := m.c
	idx := c.pickDest(m.e, m.src)
	if idx < 0 || c.boardAPI(idx).Restore(api.RestoreRequest{
		Name: m.e.Name, Checkpoint: m.cp, Board: api.OnBoard(idx), ToDisk: true}).Err != nil {
		return false
	}
	c.Parks++
	if tr := c.tracer(); tr != nil {
		tr.Instant(c.tidFor(idx), "migrate", "park",
			obs.Str("svc", m.e.Name), obs.Num("src", int64(m.src.Board)),
			obs.Num("state_mib", int64(m.cp.StateMiB)))
	}
	// The source still leaves, but its state lives on: not Lost.
	c.Boards[m.src.Board].Jitsu.Evict(m.src.Svc)
	return true
}
