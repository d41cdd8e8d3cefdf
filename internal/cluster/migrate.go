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
// The move walks both slots through their slotState by Placement.to:
// the source is slotSource during the copy and slotDraining until
// retire, the destination slotReserved until the switchover. A move
// starts only from open slots; one that would take a slot already in a
// move follows that move instead (move.then).

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

// evacuate drains every live replica off m, then calls done.
// Entries() is already name-sorted, so the sweep order is deterministic.
func (c *Cluster) evacuate(m *Member, done func()) {
	outstanding := 1 // the sweep itself, so done can't fire early
	finish := func() {
		outstanding--
		if outstanding == 0 {
			done()
		}
	}
	for _, e := range c.dir.Entries() {
		if p := replicaOn(e, m.ID); p != nil {
			outstanding++
			c.evacuateOne(e, p, finish)
		}
	}
	finish()
}

// evacuateOne moves (or, in the baseline, stops) one replica, booted or
// parked on disk. A slot already in a move (an overlapping operator
// Migrate or federation shed copying it out, or a move landing on it)
// is not moved twice: the evacuation follows that move and takes what
// it leaves here. A boot in flight (a client was already answered with
// this IP) is let finish, then moved.
func (c *Cluster) evacuateOne(e *Entry, p *Placement, done func()) {
	switch {
	case p.mv != nil:
		p.mv.then(func() { c.evacuateOne(e, p, done) })
	case p.Svc.State == core.StateLaunching:
		if !c.Boards[p.Board].Jitsu.Summon(p.Svc, core.Summon{Via: TriggerMigrate, OnReady: func(err error) {
			if err != nil {
				done()
				return
			}
			c.evacuateOne(e, p, done)
		}}).Served() {
			done()
		}
	case !p.movable():
		done()
	case !c.Cfg.migrateOnLeave:
		c.loseReplica(p)
		done()
	default:
		(&move{c: c, e: e, src: p, mandatory: true, done: func(bool) { done() }}).attempt(c.pickDest(e, p))
	}
}

// pickDest asks e's policy for a migration destination: any placeable
// board other than p's whose replica slot is open and fully cold (a slot
// already holding a disk checkpoint cannot adopt a second one, and a
// stopped source still draining is no destination). Policies may be
// stateful (RoundRobin), so callers must use the returned index rather
// than picking twice.
func (c *Cluster) pickDest(e *Entry, p *Placement) int {
	return e.Policy.Pick(c.views(e, func(i int) bool {
		d := e.Replicas[i]
		return i == p.Board || !d.in(slotOpen) || d.Svc.State != core.StateCold
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
// the cold slot dst here or, with dst nil, another cluster.
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
	m.src.to(slotSource, m)
	m.dst.to(slotReserved, m)
	return true
}

// then runs f once the move has ended, after whatever hears it now.
func (m *move) then(f func()) {
	ended := m.done
	m.done = func(ok bool) {
		ended(ok)
		f()
	}
}

// release gives both slots back: the move ends without a switchover.
func (m *move) release() {
	m.src.to(slotOpen, nil)
	m.dst.to(slotOpen, nil)
}

// movable reports whether a slot holds state a move can take: it is not
// retired and its replica is booted or parked on disk.
func (p *Placement) movable() bool {
	return p.state != slotGone && (p.Svc.State.Booted() || p.Svc.State == core.StateColdDisk)
}

// switchover hands the service to its new home: the destination's claim
// ends, and the source drains (no new answer names it) until retire.
func (m *move) switchover() {
	m.src.to(slotDraining, m)
	m.dst.to(slotOpen, nil)
}

// retire ends the source's drain: until then no reclaim may take it,
// and from then on its slot is an ordinary one again.
func (m *move) retire() { m.src.to(slotOpen, nil) }

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

// again is an evacuation's next try after an aborted copy. The source
// was given back for the wait, so an overlapping move may have taken it
// meanwhile: the evacuation then follows that move, and tries again
// only if the state is still here once it ends.
func (m *move) again() {
	switch {
	case m.src.mv != nil:
		m.src.mv.then(m.again)
	case !m.src.movable():
		m.done(false)
	default:
		m.attempt(m.c.pickDest(m.e, m.src))
	}
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
			c.eng.After(wait, m.again)
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
		if c.land(m.e, m.dst.Board, m.cp, true, nil) != nil {
			m.fail()
			return
		}
		m.release()
		c.Boards[m.src.Board].Jitsu.Evict(m.src.Svc)
		c.Migrations++
		m.done(true)
		return
	}
	if tr := c.tracer(); tr != nil {
		m.span = tr.Begin(c.tidFor(m.dst.Board), "migrate", "restore",
			obs.Str("svc", m.e.Name), obs.Num("state_mib", int64(m.cp.StateMiB)))
	}
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
