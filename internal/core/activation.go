package core

import (
	"errors"
	"sort"

	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/unikernel"
)

// launchFunc is a boot path: Launcher.Launch for a cold start,
// Launcher.Restore for a migrated-in checkpoint.
type launchFunc = func(unikernel.Image, netstack.IP, func(*unikernel.Guest, error))

// This file is the single activation state machine every trigger
// frontend drives. The paper's insight is that *any* inbound signal — a
// DNS query, a buffered TCP SYN, a toolkit resolve call — can summon a
// unikernel just in time; the code used to reproduce each signal as its
// own hard-wired path. Now the signal-specific frontends (trigger.go)
// only resolve their target and call Fire; the claim-IP →
// launch/restore → flush-waiters → reap lifecycle lives here, once.

// Summon describes one trigger firing: who fired, how the launch and
// any refusal should be accounted, and what to do when the unikernel
// serves.
type Summon struct {
	// Via names the trigger frontend for per-trigger accounting
	// (Activation.Fired). Empty firings are counted under "direct".
	Via string
	// ColdStart marks a client-driven firing: a launch it causes counts
	// in the service's ColdStarts. Speculative firings (prewarm, pool
	// manager) leave the counter alone.
	ColdStart bool
	// Refuse marks a firing whose caller surfaces out-of-memory to the
	// client (a DNS SERVFAIL, a conduit "servfail" line): the refusal
	// counts in the service's ServFails. Control-plane callers leave it
	// false and apply their own policy.
	Refuse bool
	// Force skips the memory admission gate. The SYN path uses it: a raw
	// SYN has no refusal channel, so the launch is attempted regardless
	// and failure surfaces as the guest never booting.
	Force bool
	// OnReady (may be nil) fires once the unikernel serves, or with the
	// launch error if it does not.
	OnReady func(error)
}

// Decision is the activation machine's answer to a trigger firing.
type Decision int

// Decisions.
const (
	// DecisionServe: the service is ready, or a launch is already in
	// flight — answer the client now ("returning a DNS response as soon
	// as the VM resource allocation is complete").
	DecisionServe Decision = iota
	// DecisionColdStart: DecisionServe, and this firing started the
	// launch.
	DecisionColdStart
	// DecisionNoMemory: the image does not fit — §3.3.2's resource
	// exhaustion, surfaced to clients as SERVFAIL.
	DecisionNoMemory
	// DecisionRetired: the service was deregistered; treat as unknown.
	DecisionRetired
)

func (d Decision) String() string {
	switch d {
	case DecisionServe:
		return "serve"
	case DecisionColdStart:
		return "cold-start"
	case DecisionNoMemory:
		return "no-memory"
	default:
		return "retired"
	}
}

// Served reports whether the firing should be answered positively (the
// service is usable now or will be momentarily).
func (d Decision) Served() bool {
	return d == DecisionServe || d == DecisionColdStart
}

// Activation owns the service lifecycle on one board: admission (does
// the image fit), the launch/restore state machine, the idle-IP claim
// handed between proxy and unikernel, the waiters flushed at readiness,
// and the idle reaper. Triggers fire it; it never looks at wire
// formats.
type Activation struct {
	j *Jitsu
	// Fired counts firings per trigger name (Summon.Via): read-only
	// outside this file.
	Fired map[string]uint64
	// observers see every firing after its decision (predictive
	// triggers learn arrival patterns here). Empty on a stock board, so
	// the zero-allocation DNS fast path pays one nil check.
	observers []func(svc *Service, s Summon, d Decision)
	// subs see every service state transition, in subscription order —
	// the multi-subscriber fan-out behind Subscribe. The board's
	// tracer rides here next to any test or tooling subscribers.
	subs []func(svc *Service, from, to ServiceState)
}

func newActivation(j *Jitsu) *Activation {
	return &Activation{j: j, Fired: make(map[string]uint64)}
}

// Observe registers fn to see every firing together with its decision.
// Predictive triggers (PrewarmTrigger) learn arrival patterns here;
// observers must not re-enter Fire synchronously.
func (a *Activation) Observe(fn func(svc *Service, s Summon, d Decision)) {
	a.observers = append(a.observers, fn)
}

// Subscribe registers fn to observe every service state transition.
// Subscribers run in subscription order; they must not re-enter the
// activation machine synchronously.
func (a *Activation) Subscribe(fn func(svc *Service, from, to ServiceState)) {
	a.subs = append(a.subs, fn)
}

// tracer returns the board's flight recorder (nil when tracing is off)
// and the lane its events render on.
func (a *Activation) tracer() (*obs.Tracer, int) {
	return a.j.board.Tracer, a.j.board.Cfg.TraceTID
}

// Fire runs the shared activation decision for one trigger firing:
// touch the service, admit (or refuse) a launch if it is stopped, and
// hook OnReady to its readiness. All four built-in frontends, the
// cluster scheduler and the prewarm trigger funnel through here.
func (a *Activation) Fire(svc *Service, s Summon) Decision {
	d := a.fire(svc, s)
	if tr, tid := a.tracer(); tr != nil {
		via := s.Via
		if via == "" {
			via = "direct"
		}
		tr.Instant(tid, "activation", "fire",
			obs.Str("svc", svc.Cfg.Name), obs.Str("via", via), obs.Str("decision", d.String()))
	}
	if len(a.observers) > 0 && d != DecisionRetired {
		for _, fn := range a.observers {
			fn(svc, s, d)
		}
	}
	return d
}

func (a *Activation) fire(svc *Service, s Summon) Decision {
	if svc.retired {
		return DecisionRetired
	}
	via := s.Via
	if via == "" {
		via = "direct"
	}
	a.Fired[via]++
	a.touch(svc)
	if s.ColdStart && svc.State == StateWarmMemory {
		// The warm hit: a speculatively booted replica takes its first
		// client-driven traffic and becomes Running at zero launch cost.
		a.setState(svc, StateRunning)
	}
	launching := false
	if svc.State.NeedsLaunch() {
		wasCold := svc.State == StateCold
		if !s.Force && a.j.board.Hyp.FreeMemMiB() < svc.Cfg.Image.MemMiB {
			if a.demoteForRoom(svc, s) {
				// Memory is being reclaimed by demoting LRU victims; the
				// launch leg runs once their domains are destroyed.
				if s.ColdStart && wasCold {
					svc.ColdStarts++
				}
				return DecisionColdStart
			}
			// "resource exhaustion can thus be returned in the DNS
			// response as a SERVFAIL to indicate the client should go
			// elsewhere".
			if s.Refuse {
				svc.ServFails++
			}
			if tr, tid := a.tracer(); tr != nil {
				tr.Instant(tid, "activation", "admission.refuse",
					obs.Str("svc", svc.Cfg.Name),
					obs.Num("free_mib", int64(a.j.board.Hyp.FreeMemMiB())),
					obs.Num("need_mib", int64(svc.Cfg.Image.MemMiB)))
			}
			return DecisionNoMemory
		}
		if s.ColdStart && wasCold {
			svc.ColdStarts++
		}
		launching = true
	} else if svc.State == StateLaunching && s.ColdStart && svc.launchTarget == StateWarmMemory {
		// A client joined an in-flight speculative launch: it now
		// completes straight into Running.
		svc.launchTarget = StateRunning
	}
	a.ensureRunning(svc, launchTargetFor(s), s.OnReady)
	if launching {
		return DecisionColdStart
	}
	return DecisionServe
}

// launchTargetFor maps a firing to the tier its launch completes into:
// Running for a client-driven firing, WarmMemory for a speculative one.
func launchTargetFor(s Summon) ServiceState {
	if s.ColdStart {
		return StateRunning
	}
	return StateWarmMemory
}

// AwaitReady registers fn to run when svc's in-flight launch completes
// (ok reports success). The delayed-DNS frontend parks its responders
// here; FIFO order among waiters is part of the determinism contract.
func (a *Activation) AwaitReady(svc *Service, fn func(ok bool)) {
	svc.waiters = append(svc.waiters, fn)
}

// restore is Fire for a migrated-in replica: the domain is rebuilt from
// the checkpoint and the guest resumes instead of cold-booting.
func (a *Activation) restore(svc *Service, cp *Checkpoint, onReady func(error)) error {
	if svc.retired {
		return ErrNoSuchService
	}
	if svc.State != StateCold {
		return errors.New("core: restore target not cold")
	}
	if a.j.board.Hyp.FreeMemMiB() < cp.Image.MemMiB {
		return ErrNoMemory
	}
	a.touch(svc)
	svc.Restores++
	a.launchVia(svc, "restore", StateWarmMemory, a.j.board.Launcher.Restore, onReady)
	return nil
}

// claimIdleIP puts a stopped service's address under proxy control:
// Synjitsu aliases it (full handshake), or — without Synjitsu — the
// directory host answers only ARP so SYNs transmit and die, the
// baseline behaviour of Figure 9a.
func (a *Activation) claimIdleIP(svc *Service) {
	b := a.j.board
	if b.Tracer != nil {
		b.Tracer.Instant(b.Cfg.TraceTID, "activation", "claim_ip", obs.Str("svc", svc.Cfg.Name))
	}
	if b.Syn != nil {
		b.Syn.claim(svc)
	} else {
		b.NS.ProxyARPFor(svc.Cfg.IP)
		b.NS.AnnounceIP(svc.Cfg.IP)
	}
}

// releaseIdleIP undoes claimIdleIP when the real unikernel takes over.
func (a *Activation) releaseIdleIP(svc *Service) {
	b := a.j.board
	if b.Tracer != nil {
		b.Tracer.Instant(b.Cfg.TraceTID, "activation", "release_ip", obs.Str("svc", svc.Cfg.Name))
	}
	if b.Syn != nil {
		b.Syn.release(svc)
	} else {
		b.NS.RemoveProxyARP(svc.Cfg.IP)
	}
}

// touch records service activity for the idle reaper.
func (a *Activation) touch(svc *Service) {
	svc.lastActivity = a.j.board.Eng.Now()
}

// setState moves a service between lifecycle states, fanning the
// transition out to every subscriber.
func (a *Activation) setState(svc *Service, to ServiceState) {
	from := svc.State
	svc.State = to
	if from == to {
		return
	}
	for _, fn := range a.subs {
		fn(svc, from, to)
	}
}

// ensureRunning gets the service to a booted tier if it is not there
// already: join an in-flight launch, page a disk checkpoint back in, or
// cold-boot. target is the tier a launch this call starts completes
// into; onReady (may be nil) fires once the unikernel serves.
func (a *Activation) ensureRunning(svc *Service, target ServiceState, onReady func(error)) {
	switch {
	case svc.State.Booted():
		if onReady != nil {
			onReady(nil)
		}
		return
	case svc.State == StateLaunching:
		if onReady != nil {
			prev := svc.waiters
			svc.waiters = append(prev, func(ok bool) {
				if ok {
					onReady(nil)
				} else {
					onReady(errors.New("core: launch failed"))
				}
			})
		}
		return
	case svc.State == StateColdDisk:
		a.promoteVia(svc, target, onReady)
		return
	}
	a.launchVia(svc, "boot", target, a.j.board.Launcher.Launch, onReady)
}

// launchVia runs the launch state machine through the given boot path —
// Launcher.Launch for a cold start ("boot"), Launcher.Restore for a
// migrated-in checkpoint ("restore") or a disk promote ("disk-restore").
// The caller guarantees svc needs a launch. The whole path is one span
// on the board's tracer, and the latency lands in the matching registry
// histogram.
func (a *Activation) launchVia(svc *Service, kind string, target ServiceState, launch launchFunc, onReady func(error)) {
	svc.launchTarget = target
	a.setState(svc, StateLaunching)
	svc.Launches++
	svc.launchStart = a.j.board.Eng.Now()
	if tr, tid := a.tracer(); tr != nil {
		svc.bootSpan = tr.Begin(tid, "activation", kind,
			obs.Str("svc", svc.Cfg.Name), obs.Num("mem_mib", int64(svc.Cfg.Image.MemMiB)))
	}
	launch(svc.Cfg.Image, svc.Cfg.IP, func(g *unikernel.Guest, err error) {
		if err != nil {
			a.setState(svc, a.revertState(svc))
			a.endBootSpan(svc, "error")
			a.flushWaiters(svc, false)
			if onReady != nil {
				onReady(err)
			}
			return
		}
		if svc.retired {
			// The directory dropped this service mid-boot (its board
			// departed): destroy the guest instead of resurrecting a
			// retired registration and leaking its domain.
			a.setState(svc, StateCold)
			a.endBootSpan(svc, "retired")
			a.j.board.Launcher.Destroy(g, func(error) {})
			a.flushWaiters(svc, false)
			if onReady != nil {
				onReady(errors.New("core: service deregistered during launch"))
			}
			return
		}
		svc.Guest = g
		// Two-phase handoff from the proxy happens inside this same
		// event, before any network event can interleave, so exactly
		// one of Synjitsu or the unikernel ever answers a given packet.
		a.releaseIdleIP(svc)
		// A completed disk restore supersedes the parked checkpoint.
		a.dropDiskCheckpoint(svc)
		a.setState(svc, svc.launchTarget)
		a.j.board.histFor(kind).Observe(a.j.board.Eng.Now() - svc.launchStart)
		a.endBootSpan(svc, "ready")
		a.touch(svc)
		a.scheduleReap(svc)
		a.flushWaiters(svc, true)
		if onReady != nil {
			onReady(nil)
		}
	})
}

// revertState is where a failed launch leaves the replica: back on disk
// if its checkpoint is still parked there, fully cold otherwise.
func (a *Activation) revertState(svc *Service) ServiceState {
	if svc.disk != nil {
		return StateColdDisk
	}
	return StateCold
}

// endBootSpan closes the service's in-flight boot/restore span, if any.
func (a *Activation) endBootSpan(svc *Service, status string) {
	if svc.bootSpan.ID == 0 {
		return
	}
	a.j.board.Tracer.End(svc.bootSpan, obs.Str("status", status))
	svc.bootSpan = obs.Span{}
}

// reclaimable is the one reclaim rule, asked by the pool shrink and
// preemption (through Jitsu.Reclaim), demoteForRoom and the idle reaper:
// a booted replica may go only once its guest owes its clients no bytes
// (§3.3.1: no packet is lost to the lifecycle). The wait is bounded: TCP
// acknowledges an unacked send or gives up on it.
func reclaimable(svc *Service) bool {
	return svc.State.Booted() && !svc.Guest.Stack.Owes()
}

// stopNow tears a booted service down to fully cold: shared by Evict,
// Reclaim and the idle reaper.
func (a *Activation) stopNow(svc *Service, done func()) {
	svc.Reaps++
	a.teardown(svc, StateCold, done)
}

// teardown takes a booted service's VM away, leaving the service at to:
// the guest is dropped, the state set, the idle IP claimed back for
// dom0, and then the VM destroyed. done (may be nil) fires when Destroy
// completes.
func (a *Activation) teardown(svc *Service, to ServiceState, done func()) {
	g := svc.Guest
	svc.Guest = nil
	a.setState(svc, to)
	a.claimIdleIP(svc)
	a.j.board.Launcher.Destroy(g, func(error) {
		if done != nil {
			done()
		}
	})
}

// demote parks a booted replica's state on the block device and
// destroys its VM: warm-in-memory → cold-on-disk. done (may be nil)
// fires at Destroy completion — the memory is back in the free pool —
// while the checkpoint bytes stream out asynchronously behind it; a
// promote racing the write is serialized by the device's FIFO queue.
func (a *Activation) demote(svc *Service, done func()) error {
	if svc.retired {
		return ErrNoSuchService
	}
	if !svc.State.Booted() {
		return ErrNotBooted
	}
	dev := a.j.board.Disk
	if dev == nil {
		return ErrNoDisk
	}
	cp, ok := a.j.Checkpoint(svc)
	if !ok {
		return ErrNotBooted
	}
	slots, ok := dev.Alloc(cp.StateMiB)
	if !ok {
		return ErrDiskFull
	}
	svc.Demotions++
	d := &diskCheckpoint{cp: *cp, slots: slots}
	svc.disk = d
	b := a.j.board
	start := b.Eng.Now()
	var span obs.Span
	if tr, tid := a.tracer(); tr != nil {
		span = tr.Begin(tid, "activation", "demote",
			obs.Str("svc", svc.Cfg.Name), obs.Num("state_mib", int64(cp.StateMiB)))
	}
	a.teardown(svc, StateColdDisk, done)
	dev.Write(cp.StateMiB, func() {
		if svc.disk == d {
			d.durable = true
		}
		b.demoteHist.Observe(b.Eng.Now() - start)
		if span.ID != 0 {
			b.Tracer.End(span, obs.Str("status", "durable"))
		}
	})
	return nil
}

// promote is the control-plane entry for cold-on-disk →
// warm-in-memory: admission, then the disk-restore leg.
func (a *Activation) promote(svc *Service, target ServiceState, onReady func(error)) error {
	if svc.retired {
		return ErrNoSuchService
	}
	if svc.State != StateColdDisk {
		return ErrNotOnDisk
	}
	if a.j.board.Hyp.FreeMemMiB() < svc.Cfg.Image.MemMiB {
		return ErrNoMemory
	}
	a.promoteVia(svc, target, onReady)
	return nil
}

// promoteVia runs the disk-restore launch leg: read the checkpoint off
// the device (FIFO-ordered behind any in-flight demotion write), then
// rebuild the domain restore-style — priced between a warm restore and
// a full boot. The caller guarantees svc is ColdDisk and admitted.
func (a *Activation) promoteVia(svc *Service, target ServiceState, onReady func(error)) {
	svc.DiskRestores++
	dev := a.j.board.Disk
	stateMiB := svc.disk.cp.StateMiB
	restore := a.j.board.Launcher.Restore
	a.launchVia(svc, "disk-restore", target, func(img unikernel.Image, ip netstack.IP, done func(*unikernel.Guest, error)) {
		dev.Read(stateMiB, func() {
			restore(img, ip, done)
		})
	}, onReady)
}

// adoptCheckpoint parks an incoming checkpoint on this board's disk
// without booting it: cold → cold-on-disk.
func (a *Activation) adoptCheckpoint(svc *Service, cp *Checkpoint) error {
	if svc.retired {
		return ErrNoSuchService
	}
	if svc.State != StateCold {
		return errors.New("core: adopt target not cold")
	}
	dev := a.j.board.Disk
	if dev == nil {
		return ErrNoDisk
	}
	slots, ok := dev.Alloc(cp.StateMiB)
	if !ok {
		return ErrDiskFull
	}
	d := &diskCheckpoint{cp: *cp, slots: slots}
	svc.disk = d
	a.setState(svc, StateColdDisk)
	dev.Write(cp.StateMiB, func() {
		if svc.disk == d {
			d.durable = true
		}
	})
	return nil
}

// dropDiskCheckpoint frees a replica's parked checkpoint, if any. The
// lifecycle state is the caller's concern — a completed promote moves
// to a booted tier, an eviction to Cold.
func (a *Activation) dropDiskCheckpoint(svc *Service) {
	if svc.disk == nil {
		return
	}
	a.j.board.Disk.Free(svc.disk.slots)
	svc.disk = nil
}

// demoteForRoom is the memory-pressure path: when admission fails on a
// board with a disk, the least-recently-used reclaimable replicas are
// demoted until the projected free memory covers the launch, and the
// launch leg runs once their domains are destroyed. Plan-then-execute:
// a plan that cannot reach the target (disk full, not enough victims)
// demotes nobody and the firing refuses as before. Candidates go LRU by
// last activity; the stable sort keeps ties in the directory's name order.
func (a *Activation) demoteForRoom(svc *Service, s Summon) bool {
	dev := a.j.board.Disk
	if dev == nil {
		return false
	}
	need := svc.Cfg.Image.MemMiB
	var cands []*Service
	for _, c := range a.j.ordered {
		if c != svc && reclaimable(c) {
			cands = append(cands, c)
		}
	}
	sort.SliceStable(cands, func(i, k int) bool { return cands[i].lastActivity < cands[k].lastActivity })
	free := a.j.board.Hyp.FreeMemMiB()
	slotsFree := dev.SlotsTotal() - dev.SlotsUsed()
	var victims []*Service
	for _, c := range cands {
		if free >= need {
			break
		}
		sn := dev.SlotsFor(c.Cfg.StateMiB)
		if sn > slotsFree {
			continue
		}
		slotsFree -= sn
		free += c.Cfg.Image.MemMiB
		victims = append(victims, c)
	}
	if free < need {
		return false
	}
	if tr, tid := a.tracer(); tr != nil {
		tr.Instant(tid, "activation", "pressure.demote",
			obs.Str("svc", svc.Cfg.Name), obs.Num("victims", int64(len(victims))))
	}
	wasDisk := svc.State == StateColdDisk
	target := launchTargetFor(s)
	onReady := s.OnReady
	svc.launchTarget = target
	a.setState(svc, StateLaunching)
	pending := len(victims)
	proceed := func() {
		pending--
		if pending > 0 {
			return
		}
		if svc.retired {
			a.flushWaiters(svc, false)
			if onReady != nil {
				onReady(ErrNoSuchService)
			}
			return
		}
		if a.j.board.Hyp.FreeMemMiB() < need {
			// Another placement consumed the reclaimed memory first.
			a.setState(svc, a.revertState(svc))
			a.flushWaiters(svc, false)
			if onReady != nil {
				onReady(ErrNoMemory)
			}
			return
		}
		if wasDisk {
			a.promoteVia(svc, target, onReady)
		} else {
			a.launchVia(svc, "boot", target, a.j.board.Launcher.Launch, onReady)
		}
	}
	for _, v := range victims {
		if err := a.demote(v, proceed); err != nil {
			proceed()
		}
	}
	return true
}

func (a *Activation) flushWaiters(svc *Service, ok bool) {
	ws := svc.waiters
	svc.waiters = nil
	for _, w := range ws {
		w(ok)
	}
}

// scheduleReap arms the idle timer: when the service has seen no
// activity for IdleTimeout, its VM is destroyed and the IP returns to
// proxy control — "services listening on a network endpoint are always
// available ... but are otherwise not running to reduce resource
// utilisation".
func (a *Activation) scheduleReap(svc *Service) {
	idle := svc.Cfg.IdleTimeout
	if idle <= 0 {
		return
	}
	eng := a.j.board.Eng
	deadline := svc.lastActivity + idle
	if now := eng.Now(); deadline <= now {
		deadline = now + idle // the guest still owed bytes: look again later
	}
	eng.At(deadline, func() {
		switch {
		case !svc.State.Booted():
		case eng.Now()-svc.lastActivity < idle || !reclaimable(svc):
			a.scheduleReap(svc) // activity moved the deadline, or bytes are owed
		default:
			a.stopNow(svc, nil)
		}
	})
}
