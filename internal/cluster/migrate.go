package cluster

import (
	"errors"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/core"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// Live migration of warm replicas: instead of preempting a warm
// unikernel and paying a cold boot elsewhere, the cluster checkpoints
// its state, copies it across the management link while the source
// keeps serving (pre-copy), restores on the destination at a fraction
// of the boot cost, and only then retires the source — so a graceful
// board departure never turns a warm service cold.

// ErrCannotLeave is returned for departures the cluster must refuse.
var ErrCannotLeave = errors.New("cluster: board cannot leave")

// Leave starts a graceful departure of board id: the member stops
// taking placements immediately, its live replicas are migrated off
// (or stopped, when migrateOnLeave is false — the preempt-and-reboot
// baseline), its remaining slots are retired, and its gossip agent
// broadcasts Left. done (may be nil) fires when the board is fully out.
// Board 0 hosts the directory and may not leave.
func (c *Cluster) Leave(id int, done func()) error {
	if id == 0 {
		return ErrCannotLeave
	}
	if id >= len(c.members) {
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
		case p.migrating || p.draining:
			// Already on its way out (an overlapping operator Migrate):
			// that migration's switchover/drain completes the
			// evacuation; starting a second copy would race it.
		case p.Svc.State.Booted():
			outstanding++
			c.evacuateOne(e, p, finish)
		case p.Svc.State == core.StateColdDisk:
			outstanding++
			c.evacuateDisk(e, p, finish)
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

// evacuateOne moves (or, in the baseline, stops) one ready replica.
func (c *Cluster) evacuateOne(e *Entry, p *Placement, done func()) {
	if !c.Cfg.migrateOnLeave {
		c.loseReplica(p)
		done()
		return
	}
	c.migrate(e, p, func(bool) { done() })
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

// evacuateDisk hands a disk-resident replica to another board without
// paging it in: the stored checkpoint is copied across the management
// link and adopted straight onto the destination's disk tier, falling
// back to a warm restore when the destination has no disk. Only when no
// destination fits is the checkpoint lost.
func (c *Cluster) evacuateDisk(e *Entry, p *Placement, done func()) {
	lose := func() {
		c.loseReplica(p)
		done()
	}
	if !c.Cfg.migrateOnLeave {
		lose()
		return
	}
	cpResp := c.boardAPI(p.Board).Checkpoint(api.CheckpointRequest{Name: e.Name})
	if cpResp.Err != nil {
		lose()
		return
	}
	cp := cpResp.Checkpoint
	idx := c.pickDest(e, p)
	if idx < 0 {
		lose()
		return
	}
	dst := e.Replicas[idx]
	dst.reserved = true
	p.migrating = true
	c.copyCheckpoint(p.Board, idx, cp.StateMiB, func(copied bool) {
		p.migrating = false
		dst.reserved = false
		if !copied || dst.gone {
			lose()
			return
		}
		resp := c.boardAPI(idx).Restore(api.RestoreRequest{
			Name: e.Name, Checkpoint: cp, Board: api.OnBoard(idx), ToDisk: true})
		if resp.Err != nil {
			// Destination diskless (or its store is full): page the
			// checkpoint in warm instead of losing it.
			resp = c.boardAPI(idx).Restore(api.RestoreRequest{
				Name: e.Name, Checkpoint: cp, Board: api.OnBoard(idx)})
		}
		if resp.Err != nil {
			lose()
			return
		}
		c.Boards[p.Board].Jitsu.Evict(p.Svc)
		c.Migrations++
		done()
	})
}

// migrate moves one ready replica of e off p's board for a mandatory
// evacuation (the board is leaving): if no destination fits or the
// move fails, the replica is stopped and its warm state lost — exactly
// the baseline. done reports whether the replica arrived warm.
func (c *Cluster) migrate(e *Entry, p *Placement, done func(ok bool)) {
	c.migrateAttempt(e, p, 0, done)
}

// migrateRetry reschedules an evacuation whose transfer died on the
// wire: a second later, three tries in all, then the replica is lost.
var migrateRetry = sim.Backoff{Initial: time.Second, Factor: 1, Retries: 2}

// migrateAttempt is one try of a mandatory evacuation, after retry
// reschedules; a transfer that dies on the wire reschedules here with a
// fresh destination pick — the first choice may be the very board the
// partition cut off.
func (c *Cluster) migrateAttempt(e *Entry, p *Placement, retry int, done func(ok bool)) {
	idx := c.pickDest(e, p)
	if idx < 0 {
		c.loseReplica(p)
		done(false)
		return
	}
	c.migrateTo(e, p, idx, true, retry, done)
}

// migrateTo runs the live migration to the already-picked destination.
// mandatory distinguishes an evacuation (source board is going away —
// a failed move stops the source) from an optional rebalance (a failed
// move leaves the healthy source exactly where it was).
func (c *Cluster) migrateTo(e *Entry, p *Placement, idx int, mandatory bool, retry int, done func(ok bool)) {
	dst := e.Replicas[idx]
	// The transfer speaks the typed control-plane surface: checkpoint on
	// the source board, restore on the destination, stop on switchover —
	// the same verbs an external operator would use.
	cpResp := c.boardAPI(p.Board).Checkpoint(api.CheckpointRequest{Name: e.Name})
	if cpResp.Err != nil {
		p.migrating = false
		dst.reserved = false
		if mandatory {
			c.loseReplica(p)
		}
		done(false)
		return
	}
	cp := cpResp.Checkpoint
	abort := func() {
		p.migrating = false
		dst.reserved = false
		if mandatory {
			// The destination (or the path to it) is gone but the
			// checkpoint is already captured: park it instead of
			// discarding the state with the replica.
			if !c.parkCheckpoint(e, p, cp) {
				c.loseReplica(p)
			}
		}
		done(false)
	}
	p.migrating = true
	var precopy obs.Span
	if tr := c.tracer(); tr != nil {
		precopy = tr.Begin(c.tidFor(p.Board), "migrate", "precopy",
			obs.Str("svc", e.Name), obs.Num("state_mib", int64(cp.StateMiB)),
			obs.Num("src", int64(p.Board)), obs.Num("dst", int64(idx)))
	}
	// Claim the destination slot for the whole copy: no placement,
	// prewarm or concurrent migration may take it while the checkpoint
	// is in flight, or the restore would find the slot occupied and a
	// mandatory abort would sacrifice a healthy source.
	dst.reserved = true
	c.copyCheckpoint(p.Board, idx, cp.StateMiB, func(copied bool) {
		if !copied {
			// The management path died mid-copy (chunk retries
			// exhausted). Release the claim; a mandatory evacuation gets
			// rescheduled — crash-safe: the source is still serving, the
			// destination reserved nothing durable — until the attempt
			// budget runs out and the replica is written off.
			c.tracer().End(precopy, obs.Str("status", "copy-failed"))
			p.migrating = false
			dst.reserved = false
			if !mandatory {
				done(false)
				return
			}
			if wait, more := migrateRetry.Next(retry, nil); more {
				c.eng.After(wait, func() {
					if p.gone || !p.Svc.State.Booted() {
						done(false)
						return
					}
					c.migrateAttempt(e, p, retry+1, done)
				})
				return
			}
			// Attempt budget spent: the checkpoint exists even though no
			// copy ever landed — park it before writing the replica off.
			if !c.parkCheckpoint(e, p, cp) {
				c.loseReplica(p)
			}
			done(false)
			return
		}
		if p.gone || !p.Svc.State.Booted() {
			// The source died mid-copy; nothing to switch over.
			c.tracer().End(precopy, obs.Str("status", "source-lost"))
			p.migrating = false
			dst.reserved = false
			done(false)
			return
		}
		c.tracer().End(precopy, obs.Str("status", "copied"))
		var restore obs.Span
		if tr := c.tracer(); tr != nil {
			restore = tr.Begin(c.tidFor(idx), "migrate", "restore",
				obs.Str("svc", e.Name), obs.Num("state_mib", int64(cp.StateMiB)))
		}
		resp := c.boardAPI(idx).Restore(api.RestoreRequest{Name: e.Name, Checkpoint: cp, Board: api.OnBoard(idx), OnReady: func(err error) {
			if err != nil {
				c.tracer().End(restore, obs.Str("status", "error"))
				abort()
				return
			}
			c.tracer().End(restore, obs.Str("status", "ready"))
			// Switchover: every future DNS answer names the destination
			// (the source leaves the ready set and the answer epoch
			// moves) — but a client answered with the source IP moments
			// ago may still be connecting, so the source drains for the
			// same guard window the preemptor honours before it stops.
			p.draining = true
			dst.reserved = false
			dst.lastAnswered = p.lastAnswered
			c.Migrations++
			if tr := c.tracer(); tr != nil {
				tr.Instant(c.tidFor(idx), "migrate", "switchover",
					obs.Str("svc", e.Name), obs.Num("src", int64(p.Board)), obs.Num("dst", int64(idx)))
			}
			c.front().DNS.BumpEpoch()
			guard := 10 * bootEstimate
			grace := sim.Duration(0)
			if since := c.eng.Now() - p.lastAnswered; p.lastAnswered > 0 && since < guard {
				grace = guard - since
			}
			c.eng.After(grace, func() {
				p.migrating = false
				c.Boards[p.Board].Jitsu.Evict(p.Svc)
				done(true)
			})
		}})
		if resp.Err != nil {
			// Destination lost its memory headroom during the copy.
			c.tracer().End(restore, obs.Str("status", "refused"))
			abort()
		}
		// On success the slot stays reserved until the switchover: the
		// migration pair (ready source + restoring destination) must
		// read as ONE replica to the pool manager, or make-before-break
		// looks over-provisioned and reclaim tears down a bystander.
	})
}

// parkCheckpoint is the crash-interrupted-migration fallback: a
// mandatory evacuation died after the source's state was captured (the
// destination crashed, or the management path to it partitioned), and
// the source board is leaving. Instead of discarding the checkpoint
// with the replica, adopt it onto a surviving board's disk tier — the
// board API is in-process, so a wrecked management network cannot stop
// the hand-off — and the service's next activation resumes from
// StateColdDisk instead of cold-booting. Returns false (caller loses
// the replica, the old behaviour) when no surviving board has a cold
// slot and a disk to take it. The failed destination is NOT excluded:
// a crashed board is already unplaceable, while one that is merely
// unreachable over the management network (or out of guest memory) can
// still adopt onto its disk through the in-process board API.
func (c *Cluster) parkCheckpoint(e *Entry, p *Placement, cp *core.Checkpoint) bool {
	idx := e.Policy.Pick(c.views(e, func(i int) bool {
		return i == p.Board || e.Replicas[i].Svc.State != core.StateCold
	}))
	if idx < 0 {
		return false
	}
	resp := c.boardAPI(idx).Restore(api.RestoreRequest{
		Name: e.Name, Checkpoint: cp, Board: api.OnBoard(idx), ToDisk: true})
	if resp.Err != nil {
		return false
	}
	c.Parks++
	if tr := c.tracer(); tr != nil {
		tr.Instant(c.tidFor(idx), "migrate", "park",
			obs.Str("svc", e.Name), obs.Num("src", int64(p.Board)),
			obs.Num("state_mib", int64(cp.StateMiB)))
	}
	// The source still leaves — but its state lives on, so this is not a
	// Lost replica.
	c.Boards[p.Board].Jitsu.Evict(p.Svc)
	return true
}
